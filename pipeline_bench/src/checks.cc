#include "checks.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <vector>

#include "common/label.h"
#include "eval/pr_curve.h"

namespace pb {

using kf::extract::FusedKbTripleRow;
using kf::extract::FusedKbTsv;

double FixedPointError(const FusedKbTsv& rows, double floor, double ceiling) {
  const size_t num_provs = rows.provenances.size();
  std::vector<double> sum(num_provs, 0.0);
  std::vector<uint64_t> cnt(num_provs, 0);
  for (const FusedKbTripleRow& t : rows.triples) {
    if (!t.has_probability || t.from_fallback) continue;
    // Stage II accumulates the single-precision value of each probability.
    const double p = static_cast<double>(static_cast<float>(t.probability));
    for (uint32_t prov : t.supporters) {
      if (prov >= num_provs) return std::numeric_limits<double>::infinity();
      sum[prov] += p;
      ++cnt[prov];
    }
  }
  double worst = 0.0;
  for (size_t p = 0; p < num_provs; ++p) {
    const kf::extract::FusedKbProvRow& row = rows.provenances[p];
    if (!row.evaluated) {
      if (cnt[p] != 0) return std::numeric_limits<double>::infinity();
      continue;
    }
    if (cnt[p] == 0) return std::numeric_limits<double>::infinity();
    const double mean = std::clamp(sum[p] / static_cast<double>(cnt[p]),
                                   floor, ceiling);
    worst = std::max(worst, std::fabs(mean - row.accuracy));
  }
  return worst;
}

bool ReadGold(const std::string& path, GoldMap* gold) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.rfind('\t');
    if (tab == std::string::npos || tab + 2 != line.size()) return false;
    (*gold)[line.substr(0, tab)] = line[tab + 1] == '1' ? 1 : 0;
  }
  return true;
}

Ordering PaperOrdering(const FusedKbTsv& rows, const GoldMap& gold) {
  const size_t n = rows.triples.size();
  // Group triples by data item, then count each item's distinct
  // provenances: the VOTE denominator.
  std::unordered_map<std::string, std::vector<uint32_t>> items;
  std::vector<kf::Label> labels(n, kf::Label::kUnknown);
  std::vector<double> fused(n, 0.0);
  std::vector<uint8_t> has(n, 0);
  Ordering out;
  std::string key;
  for (uint32_t t = 0; t < n; ++t) {
    const FusedKbTripleRow& row = rows.triples[t];
    key.assign(row.subject).append("\t").append(row.predicate);
    items[key].push_back(t);
    key.append("\t").append(row.object);
    auto it = gold.find(key);
    if (it != gold.end()) {
      labels[t] = it->second ? kf::Label::kTrue : kf::Label::kFalse;
      ++out.labeled;
    }
    fused[t] = row.probability;
    has[t] = row.has_probability;
  }
  std::vector<double> vote(n, 0.0);
  std::vector<uint8_t> all(n, 1);
  std::vector<uint32_t> provs;
  for (const auto& [item, triples] : items) {
    provs.clear();
    for (uint32_t t : triples) {
      const std::vector<uint32_t>& s = rows.triples[t].supporters;
      provs.insert(provs.end(), s.begin(), s.end());
    }
    std::sort(provs.begin(), provs.end());
    const size_t distinct =
        std::unique(provs.begin(), provs.end()) - provs.begin();
    for (uint32_t t : triples) {
      vote[t] = distinct == 0 ? 0.0
                              : static_cast<double>(
                                    rows.triples[t].supporters.size()) /
                                    static_cast<double>(distinct);
    }
  }
  out.fused_auc = kf::eval::AucPr(fused, has, labels);
  out.vote_auc = kf::eval::AucPr(vote, all, labels);
  return out;
}

uint32_t WinnerByScan(const kf::FusedKB& kb, std::string_view subject,
                      std::string_view predicate) {
  uint32_t best = kf::FusedKB::kNone;
  double best_p = -1.0;
  for (uint32_t t = 0; t < kb.num_triples(); ++t) {
    const kf::KbVerdict v = kb.verdict(t);
    if (!v.has_probability || v.subject != subject ||
        v.predicate != predicate) {
      continue;
    }
    if (v.probability > best_p) {
      best_p = v.probability;
      best = t;
    }
  }
  return best;
}

void HalveOneProbability(FusedKbTsv* rows) {
  for (FusedKbTripleRow& t : rows->triples) {
    if (t.has_probability && !t.from_fallback && !t.winner &&
        t.probability > 0.1) {
      t.probability *= 0.5;
      t.calibrated *= 0.5;
      return;
    }
  }
}

void InvertProbabilities(FusedKbTsv* rows) {
  for (FusedKbTripleRow& t : rows->triples) t.probability = 1.0 - t.probability;
}

}  // namespace pb
