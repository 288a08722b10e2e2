#include "bench.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>

namespace pb {

double DefaultScale(const std::string& workload) {
  return workload == "serve_stream" ? 0.75 : 2.5;
}

size_t DefaultRecords(const std::string& workload) {
  return workload == "serve_stream" ? 64'000 : 250'000;
}

kf::fusion::FusionOptions PopAccuOptions() {
  kf::fusion::FusionOptions o = kf::fusion::FusionOptions::PopAccu();
  o.num_workers = 2;
  return o;
}

kf::fusion::FusionOptions ServeOptions() {
  kf::fusion::FusionOptions o;
  o.method = kf::fusion::Method::kAccu;
  o.max_rounds = 100;
  o.convergence_epsilon = 1e-3;
  o.num_shards = 16;
  o.num_workers = 1;
  return o;
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  // A check that runs more than once passes only if every run passes.
  auto it = checks.find(name);
  checks[name] = ok && (it == checks.end() || it->second);
  notes.push_back(name + (ok ? " ok: " : " FAILED: ") + detail);
}

bool Report::correct() const {
  if (checks.empty()) return false;
  for (const auto& [name, ok] : checks) {
    if (!ok) return false;
  }
  return true;
}

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},      {"pipeline_s", "s"},  {"peak_rss_mb", "MB"},
    {"kb_file_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"extract.tsv_read_s", "s"},   {"store.corpus_load_s", "s"},
    {"store.kb_export_s", "s"},    {"fusion.build_s", "s"},
    {"fusion.stage1_s", "s"},      {"fusion.stage2_s", "s"},
    {"fusion.rounds", "count"},    {"kf.snapshot_ms", "ms"},
    {"kf.lookup_ns", "ns"},        {"spill.fuse_s", "s"},
    {"spill.written_mb", "MB"},    {"spill.maps_opened", "count"},
    {"spill.shards_evicted", "count"}, {"spill.high_water_mb", "MB"},
};

const std::vector<MetricDef> kServeOnly = {
    {"publish_ms", "ms"},       {"publish_p90_ms", "ms"},
    {"lookups_per_s", "1/s"},
    {"fusion.refuse_ms", "ms"}, {"fusion.refuse_rounds", "count"},
};

std::string Report::ToJson(const std::vector<MetricDef>& defs,
                           const std::vector<MetricDef>& extras) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    std::snprintf(buf, sizeof(buf), "%.17g",
                  it == values.end() ? 0.0 : it->second);
    out += std::string(i ? ", \"" : "\"") + defs[i].name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  for (const MetricDef& d : extras) {
    auto it = values.find(d.name);
    if (it == values.end()) continue;
    std::snprintf(buf, sizeof(buf), "%.17g", it->second);
    out += std::string(", \"") + d.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + d.unit + "\"}";
  }
  out += "}, \"checks\": {";
  size_t i = 0;
  for (const auto& [name, ok] : checks) {
    out += (i++ ? ", \"" : "\"") + name + "\": " + (ok ? "true" : "false");
  }
  out += "}}";
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

PeakRssSampler::PeakRssSampler() : peak_mb_(PeakRssMb()) {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(1),
                         [this] { return stop_; })) {
      peak_mb_ = std::max(peak_mb_, PeakRssMb());
    }
  });
}

double PeakRssSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
  return std::max(peak_mb_, PeakRssMb());
}

double FileSizeMb(const std::string& path) {
  struct stat st;
  if (stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

KeyStream::KeyStream(std::vector<std::pair<std::string, std::string>> keys,
                     double exponent, uint64_t seed, size_t length)
    : keys_(std::move(keys)) {
  if (keys_.empty()) return;
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> rank(keys_.size());
  for (uint32_t i = 0; i < rank.size(); ++i) rank[i] = i;
  std::shuffle(rank.begin(), rank.end(), rng);
  std::vector<double> cdf(keys_.size());
  double total = 0.0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[r] = total;
  }
  order_.resize(length);
  for (uint32_t& o : order_) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53 * total;
    const size_t r = std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    o = rank[std::min(r, cdf.size() - 1)];
  }
}

std::vector<std::pair<std::string, std::string>> WinnerKeys(
    const kf::FusedKB& kb) {
  std::vector<std::pair<std::string, std::string>> keys;
  for (uint32_t t = 0; t < kb.num_triples(); ++t) {
    const kf::KbVerdict v = kb.verdict(t);
    if (v.winner) keys.emplace_back(v.subject, v.predicate);
  }
  return keys;
}

namespace {
constexpr size_t kKeyStreamLength = 1 << 16;
}  // namespace

double LookupNs(const kf::FusedKB& kb,
                const std::vector<std::pair<std::string, std::string>>& keys,
                uint64_t seed, int blocks, size_t per_block,
                uint64_t* misses) {
  const KeyStream ks(keys, kKeyZipf, seed * 131, kKeyStreamLength);
  std::vector<double> ns;
  size_t i = 0;
  for (int b = 0; b < blocks; ++b) {
    const int64_t start = NowNs();
    for (size_t j = 0; j < per_block; ++j, ++i) {
      const auto& key = ks.at(i);
      if (!kb.Lookup(key.first, key.second)) ++*misses;
    }
    ns.push_back(static_cast<double>(NowNs() - start) /
                 static_cast<double>(per_block));
  }
  return Median(ns);
}

}  // namespace pb
