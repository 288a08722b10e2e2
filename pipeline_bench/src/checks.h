// Output checks computed apart from the fusion code: each one recomputes
// a property of the fused KB from the KB's own rows (probabilities,
// supporter lists, provenance accuracies) or from the generated gold
// standard, never by calling the engine again.
#ifndef PIPELINE_BENCH_CHECKS_H_
#define PIPELINE_BENCH_CHECKS_H_

#include <string>
#include <string_view>
#include <unordered_map>

#include "extract/tsv_io.h"
#include "kf/fused_kb.h"

namespace pb {

/// Stage II fixed point: every evaluated provenance's accuracy equals the
/// clamped mean of the (float-rounded) probabilities of the scored,
/// non-fallback triples it supports, and an unevaluated provenance
/// supports no such triple. Returns the largest deviation seen (infinity
/// for a structural violation).
double FixedPointError(const kf::extract::FusedKbTsv& rows, double floor,
                       double ceiling);
inline constexpr double kFixedPointTolerance = 1e-12;

/// Gold labels keyed by "subject\tpredicate\tobject" (1 true, 0 false),
/// as the generator writes them.
using GoldMap = std::unordered_map<std::string, uint8_t>;
bool ReadGold(const std::string& path, GoldMap* gold);

struct Ordering {
  double fused_auc = 0.0;
  double vote_auc = 0.0;
  size_t labeled = 0;
};
/// AUC-PR of the fused probabilities and of a VOTE share recomputed from
/// the supporter lists (a triple's supporters over the distinct
/// provenances of its data item), both against the gold labels.
Ordering PaperOrdering(const kf::extract::FusedKbTsv& rows,
                       const GoldMap& gold);

/// The winning triple of (subject, predicate) found by scanning every
/// triple of the KB: highest probability, ties toward the lower index.
/// FusedKB::kNone when the item has no scored triple.
uint32_t WinnerByScan(const kf::FusedKB& kb, std::string_view subject,
                      std::string_view predicate);

/// Self-test corruption: halves the probability of one scored losing
/// triple, so winners stay consistent and the KB still validates.
void HalveOneProbability(kf::extract::FusedKbTsv* rows);
/// Self-test corruption: ranks every triple upside down (p -> 1 - p).
void InvertProbabilities(kf::extract::FusedKbTsv* rows);

}  // namespace pb

#endif  // PIPELINE_BENCH_CHECKS_H_
