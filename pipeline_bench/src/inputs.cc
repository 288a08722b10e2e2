// Input generation (the `gen` mode, run as its own process so neither its
// time nor its memory lands in the measured phase): a seeded synthetic
// corpus, written in the form each workload reads.
#include <cstdio>
#include <vector>

#include "bench.h"
#include "common/label.h"
#include "eval/gold_standard.h"
#include "extract/tsv_io.h"
#include "fusion/engine.h"
#include "store/store.h"
#include "synth/corpus.h"

namespace pb {

namespace {

// Gold labels of every labeled triple, keyed by the names the rendered
// TSV gives it (see synth::RenderExtractionsTsv).
std::string RenderGold(const kf::extract::ExtractionDataset& ds,
                       const kf::kb::KnowledgeBase& freebase) {
  const std::vector<kf::Label> labels =
      kf::eval::BuildGoldStandard(ds, freebase);
  std::string out;
  char line[96];
  for (size_t t = 0; t < labels.size(); ++t) {
    if (labels[t] == kf::Label::kUnknown) continue;
    const kf::extract::TripleInfo& info = ds.triple(static_cast<uint32_t>(t));
    const kf::kb::DataItem& item = ds.item(info.item);
    std::snprintf(line, sizeof(line), "s%u\tp%u\tv%u\t%d\n", item.subject,
                  item.predicate, info.object,
                  labels[t] == kf::Label::kTrue ? 1 : 0);
    out += line;
  }
  return out;
}

int Fail(const kf::Status& status) {
  std::fprintf(stderr, "gen: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int Generate(const Args& args) {
  kf::synth::SynthConfig config = kf::synth::SynthConfig().Scaled(args.scale);
  config.seed = args.seed;
  const kf::synth::SynthCorpus corpus = kf::synth::GenerateCorpus(config);
  const size_t available = corpus.dataset.num_records();
  if (args.records > available) {
    std::fprintf(stderr, "gen: seed %llu gives %zu records, %zu needed\n",
                 static_cast<unsigned long long>(args.seed), available,
                 args.records);
    return 1;
  }
  const kf::extract::ExtractionDataset dataset =
      kf::extract::CloneRecordPrefix(corpus.dataset,
                                     args.records ? args.records : available);
  const std::string tsv = kf::synth::RenderExtractionsTsv(dataset);

  if (args.workload == "batch_tsv") {
    kf::Status s = kf::extract::WriteFile(PathIn(args.dir, kTsvFile), tsv);
    if (!s.ok()) return Fail(s);
    s = kf::extract::WriteFile(PathIn(args.dir, kGoldFile),
                               RenderGold(dataset, corpus.freebase));
    return s.ok() ? 0 : Fail(s);
  }

  // serve_stream and spill_budget read the kf::store binary corpus of the
  // same rendered extractions.
  kf::Result<kf::extract::TsvCorpus> parsed =
      kf::extract::ReadExtractionsTsv(tsv);
  if (!parsed.ok()) return Fail(parsed.status());
  // The same bytes as store::WriteCorpusFile, written without its fsync:
  // a scratch input needs no durability, and the disk's fsync latency,
  // which other tenants of a shared disk decide, moved set-up time.
  kf::Status s = kf::extract::WriteFile(PathIn(args.dir, kCorpusFile),
                                        kf::store::WriteCorpus(*parsed));
  if (!s.ok()) return Fail(s);
  if (args.workload != "spill_budget") return 0;

  // The budget: a quarter of the claim graph's spillable bytes.
  const kf::fusion::FusionEngine engine(parsed->dataset, PopAccuOptions());
  size_t spillable = 0;
  for (size_t i = 0; i < engine.graph().num_shards(); ++i) {
    spillable += engine.graph().shard(static_cast<uint32_t>(i)).SpillableBytes();
  }
  return kf::extract::WriteFile(PathIn(args.dir, kBudgetFile),
                                std::to_string(spillable / 4) + "\n")
                 .ok()
             ? 0
             : 1;
}

}  // namespace pb
