// The three workloads. Each one times its passes (or publishes) through
// the library's public API, reports the end-to-end metrics untraced or the
// per-layer spans traced, and checks its outputs in both modes.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "extract/tsv_io.h"
#include "fusion/engine.h"
#include "fusion/registry.h"
#include "kf/kb_server.h"
#include "kf/session.h"
#include "store/store.h"

namespace pb {

namespace {

using kf::FusedKB;
using kf::SnapshotNaming;
using kf::extract::TsvCorpus;
using kf::fusion::FusionOptions;

constexpr char kKbFile[] = "fused_kb.bin";
// serve_stream's closed-loop readers beside the writer.
constexpr int kReaders = 2;
// Traced single-thread lookup latency: median of blocks.
constexpr int kLatencyBlocks = 9;
constexpr size_t kLookupsPerBlock = 200'000;
// On generations 1, 1 + kSampleEvery, ..., each serving reader checks the
// first winner it is served against a scan of that generation.
constexpr uint64_t kSampleEvery = 16;
// Traced runs: the layer spans must cover each pass within 5%.
constexpr double kMinCoverage = 0.95;

std::string Fmt(const char* fmt, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

/// Counts a failed operation; returns false so a pass can `return Fail()`.
bool Fail(Report* rep, const std::string& what, const kf::Status& s) {
  ++rep->failed;
  rep->notes.push_back(what + ": " + s.ToString());
  return false;
}

/// Runs `pass(i)` until the next pass would end after `seconds` (always at
/// least one); returns the wall time (s) of each pass. `first_peak_mb`
/// gets the process's peak resident set during the first (cold) pass:
/// later passes reuse a heap that grows in most runs but not all, which
/// moved the peak after all passes by up to 30 MB between runs.
template <class Pass>
std::vector<double> RunPasses(double seconds, double* first_peak_mb,
                              Pass&& pass) {
  std::vector<double> took;
  const int64_t start = NowNs();
  while (took.empty() ||
         Seconds(start, NowNs()) + Median(took) <= seconds) {
    std::optional<PeakRssSampler> sampler;
    if (took.empty()) sampler.emplace();
    const int64_t p0 = NowNs();
    if (!pass(static_cast<int>(took.size()))) break;
    took.push_back(Seconds(p0, NowNs()));
    if (sampler) *first_peak_mb = sampler->Stop();
  }
  return took;
}

/// Lists every pass's wall time in the run's notes.
void NotePasses(const std::vector<double>& pass_s, Report* rep) {
  std::string note = "pass seconds:";
  for (double s : pass_s) note += Fmt(" %.4f", s);
  rep->notes.push_back(note);
}

/// Stage II fixed point of `rows` under `opts`' accuracy clamp.
void CheckFixedPoint(const kf::extract::FusedKbTsv& rows,
                     const FusionOptions& opts, Report* rep) {
  const double err =
      FixedPointError(rows, opts.accuracy_floor, opts.accuracy_ceiling);
  rep->Check("stage2_fixed_point", err <= kFixedPointTolerance,
             Fmt("max accuracy deviation %.3g over %.0f provenances", err,
                 static_cast<double>(rows.provenances.size())));
}

/// The rows of the KB under check: `kb`'s own, or with one probability
/// halved when the self-test asks for it.
kf::extract::FusedKbTsv CheckedRows(const FusedKB& kb, const Args& args) {
  kf::extract::FusedKbTsv rows = kb.ToRows();
  if (args.corrupt == "prob") HalveOneProbability(&rows);
  return rows;
}

/// The KB under check, rebuilt from CheckedRows().
FusedKB CheckedKb(const kf::extract::FusedKbTsv& rows) {
  kf::Result<FusedKB> kb = FusedKB::FromRows(rows);
  KF_CHECK_OK(kb.status());
  return std::move(kb).value();
}

/// Traced runs: one reader's lookup latency on `kb`, no writer.
void MeasureLookupNs(const FusedKB& kb,
                     const std::vector<std::pair<std::string, std::string>>& keys,
                     const Args& args, Report* rep) {
  uint64_t misses = 0;
  rep->Set("kf.lookup_ns", LookupNs(kb, keys, args.seed, kLatencyBlocks,
                                    kLookupsPerBlock, &misses));
  rep->attempted += kLatencyBlocks * kLookupsPerBlock;
  rep->failed += misses;
}

void CheckCoverage(const Tracer& tr, const char* outer, Report* rep) {
  if (!tr.on()) return;
  const double c = tr.MinChildCoverage(outer);
  rep->Check("trace_coverage", c >= kMinCoverage,
             Fmt("layer spans cover >= %.4f of every ", c) + outer);
}

double Mb(double bytes) { return bytes / (1024.0 * 1024.0); }

}  // namespace

// ---- batch_tsv: extraction TSV -> cold POPACCU -> snapshot -> export ----

int RunBatchTsv(const Args& args, Report* rep) {
  Tracer tr(args.trace);
  const FusionOptions opts = PopAccuOptions();
  const std::string method = kf::fusion::Registry::NameOf(opts.method);
  const std::string tsv_path = PathIn(args.dir, kTsvFile);
  const std::string kb_path = PathIn(args.dir, kKbFile);
  std::optional<FusedKB> kb;
  std::vector<double> rounds;
  double peak_mb = 0.0;  // during the first pass

  rep->Set("setup_s", Seconds(args.t0_ns, NowNs()));
  const auto pass_s = RunPasses(args.seconds, &peak_mb, [&](int i) {
    ++rep->attempted;
    // Ends after the pass's last call: freeing the pass's objects on
    // return is timed by the pass but lies outside every span.
    std::optional<Span> pass;
    pass.emplace(&tr, "pass", i);
    kf::Result<TsvCorpus> corpus = [&] {
      Span s(&tr, "extract.tsv_read", i);
      return kf::extract::ReadExtractionsTsvFile(tsv_path);
    }();
    if (!corpus.ok()) return Fail(rep, "read", corpus.status());
    // What Session::Fuse runs for an engine method (FusionEngine::Run),
    // driven stage by stage so each stage gets its own span.
    std::optional<kf::fusion::FusionEngine> engine;
    kf::fusion::FusionResult result;
    {
      Span s(&tr, "fusion.build", i);
      engine.emplace(corpus->dataset, opts);
      result = engine->Prepare();
    }
    for (size_t round = 1; round <= opts.max_rounds; ++round) {
      {
        Span s(&tr, "fusion.stage1", i);
        engine->StageI(round, &result);
      }
      result.num_rounds = round;
      double delta;
      {
        Span s(&tr, "fusion.stage2", i);
        delta = engine->StageII(result);
      }
      if (round > 1 && delta < opts.convergence_epsilon) break;
    }
    result.num_unevaluated_provenances = 0;
    for (uint8_t e : engine->provenance_evaluated()) {
      result.num_unevaluated_provenances += e ? 0 : 1;
    }
    rounds.push_back(static_cast<double>(result.num_rounds));
    {
      Span s(&tr, "kf.snapshot", i);
      kf::Result<FusedKB> snap =
          FusedKB::Snapshot(corpus->dataset, *engine, result, method,
                            SnapshotNaming::FromCorpus(*corpus));
      if (!snap.ok()) return Fail(rep, "snapshot", snap.status());
      kb = std::move(snap).value();
    }
    kf::Status exported;
    {
      Span s(&tr, "store.kb_export", i);
      exported = kb->ExportBinary(kb_path);
    }
    pass.reset();
    return exported.ok() || Fail(rep, "export", exported);
  });
  if (!kb) return 1;
  NotePasses(pass_s, rep);

  if (args.trace) {
    rep->Set("extract.tsv_read_s", Median(tr.PerPass("extract.tsv_read")));
    rep->Set("fusion.build_s", Median(tr.PerPass("fusion.build")));
    rep->Set("fusion.stage1_s", Median(tr.PerPass("fusion.stage1")));
    rep->Set("fusion.stage2_s", Median(tr.PerPass("fusion.stage2")));
    rep->Set("fusion.rounds", Median(rounds));
    rep->Set("kf.snapshot_ms", 1e3 * Median(tr.Each("kf.snapshot")));
    rep->Set("store.kb_export_s", Median(tr.Each("store.kb_export")));
  } else {
    rep->Set("peak_rss_mb", peak_mb);
    rep->Set("pipeline_s", Min(pass_s));
    rep->Set("kb_file_mb", FileSizeMb(kb_path));
  }
  CheckCoverage(tr, "pass", rep);
  if (args.trace) MeasureLookupNs(*kb, WinnerKeys(*kb), args, rep);

  kf::extract::FusedKbTsv rows = CheckedRows(*kb, args);
  const FusedKB checked = CheckedKb(rows);
  CheckFixedPoint(rows, opts, rep);

  GoldMap gold;
  if (!ReadGold(PathIn(args.dir, kGoldFile), &gold)) {
    rep->Check("paper_ordering", false, "gold file unreadable");
  } else {
    if (args.corrupt == "rank") InvertProbabilities(&rows);
    const Ordering o = PaperOrdering(rows, gold);
    rep->Check("paper_ordering", o.labeled > 0 && o.fused_auc > o.vote_auc,
               Fmt("AUC-PR fused %.4f vs VOTE %.4f", o.fused_auc,
                   o.vote_auc));
  }

  kf::Result<FusedKB> back = FusedKB::ImportBinary(kb_path);
  rep->Check("export_roundtrip", back.ok() && *back == checked,
             back.ok() ? "exported file read back" : back.status().ToString());
  if (tr.on()) tr.WriteJsonLines(PathIn(args.dir, "trace.jsonl"));
  return 0;
}

// ---- spill_budget: binary corpus -> budgeted POPACCU -> snapshot ----

int RunSpillBudget(const Args& args, Report* rep) {
  Tracer tr(args.trace);
  FusionOptions opts = PopAccuOptions();
  {
    std::ifstream in(PathIn(args.dir, kBudgetFile));
    in >> opts.memory_budget_bytes;
    if (!in || opts.memory_budget_bytes == 0) {
      std::fprintf(stderr, "spill_budget: no budget file in %s\n",
                   args.dir.c_str());
      return 1;
    }
  }
  opts.spill_dir = PathIn(args.dir, "spill");
  const std::string corpus_path = PathIn(args.dir, kCorpusFile);
  std::optional<FusedKB> kb;
  kf::spill::SpillStats stats;
  double peak_mb = 0.0;  // during the first pass

  rep->Set("setup_s", Seconds(args.t0_ns, NowNs()));
  const auto pass_s = RunPasses(args.seconds, &peak_mb, [&](int i) {
    ++rep->attempted;
    // Ends after the pass's last call: freeing the pass's objects on
    // return is timed by the pass but lies outside every span.
    std::optional<Span> pass;
    pass.emplace(&tr, "pass", i);
    kf::Result<TsvCorpus> corpus = [&] {
      Span s(&tr, "store.corpus_load", i);
      return kf::store::LoadCorpusFile(corpus_path);
    }();
    if (!corpus.ok()) return Fail(rep, "load", corpus.status());
    kf::Session session = kf::Session::Borrow(corpus->dataset);
    kf::Status fused;
    {
      Span s(&tr, "spill.fuse", i);
      fused = session.Fuse(opts).status();
    }
    if (!fused.ok()) return Fail(rep, "fuse", fused);
    {
      Span s(&tr, "kf.snapshot", i);
      kf::Result<FusedKB> snap =
          session.Snapshot(SnapshotNaming::FromCorpus(*corpus));
      if (!snap.ok()) return Fail(rep, "snapshot", snap.status());
      kb = std::move(snap).value();
    }
    stats = *session.spill_stats();
    pass.reset();
    return true;
  });
  if (!kb) return 1;
  NotePasses(pass_s, rep);

  const std::string kb_path = PathIn(args.dir, kKbFile);
  if (args.trace) {
    rep->Set("store.corpus_load_s", Median(tr.PerPass("store.corpus_load")));
    rep->Set("spill.fuse_s", Median(tr.PerPass("spill.fuse")));
    rep->Set("kf.snapshot_ms", 1e3 * Median(tr.Each("kf.snapshot")));
    rep->Set("spill.written_mb", Mb(static_cast<double>(stats.bytes_written)));
    rep->Set("spill.maps_opened", static_cast<double>(stats.maps_opened));
    rep->Set("spill.shards_evicted", static_cast<double>(stats.shards_evicted));
    rep->Set("spill.high_water_mb",
             Mb(static_cast<double>(stats.accounted_high_water)));
  } else {
    rep->Set("peak_rss_mb", peak_mb);
    rep->Set("pipeline_s", Min(pass_s));
  }
  CheckCoverage(tr, "pass", rep);
  {
    Span s(&tr, "store.kb_export", -1);
    const kf::Status st = kb->ExportBinary(kb_path);
    if (!st.ok()) Fail(rep, "export", st);
  }
  if (args.trace) {
    rep->Set("store.kb_export_s", Median(tr.Each("store.kb_export")));
  } else {
    rep->Set("kb_file_mb", FileSizeMb(kb_path));
  }
  if (args.trace) MeasureLookupNs(*kb, WinnerKeys(*kb), args, rep);

  kf::extract::FusedKbTsv rows = CheckedRows(*kb, args);
  const FusedKB checked = CheckedKb(rows);
  CheckFixedPoint(rows, opts, rep);

  // The same corpus fused fully resident, outside the timed passes.
  kf::Result<TsvCorpus> corpus = kf::store::LoadCorpusFile(corpus_path);
  std::optional<FusedKB> resident;
  if (corpus.ok()) {
    kf::Session session = kf::Session::Borrow(corpus->dataset);
    FusionOptions ropts = opts;
    ropts.memory_budget_bytes = 0;
    ropts.spill_dir.clear();
    if (session.Fuse(ropts).ok()) {
      kf::Result<FusedKB> snap =
          session.Snapshot(SnapshotNaming::FromCorpus(*corpus));
      if (snap.ok()) resident = std::move(snap).value();
    }
  }
  rep->Check("budget_bit_identity", resident && *resident == checked,
             Fmt("budget %.1f MB, %.0f shard maps",
                 Mb(static_cast<double>(opts.memory_budget_bytes)),
                 static_cast<double>(stats.maps_opened)));
  if (tr.on()) tr.WriteJsonLines(PathIn(args.dir, "trace.jsonl"));
  return 0;
}

// ---- serve_stream: KbServer under one writer and two readers ----

namespace {

struct ReaderTally {
  uint64_t lookups = 0;
  uint64_t misses = 0;
  uint64_t backwards = 0;  // seqno observed lower than an earlier one
  uint64_t sampled = 0;
  uint64_t wrong = 0;      // sampled winner != scan of that generation
};

/// A reader's running lookup count, on its own cache line; the writer
/// samples it around every publish.
struct alignas(64) Progress {
  std::atomic<uint64_t> lookups{0};
};

/// One serving reader: closed-loop point lookups through a
/// KbServer::Reader while `phase` is 1.
void ServeReader(const kf::KbServer& server, const KeyStream& keys,
                 const std::atomic<int>& phase, const Args& args, int id,
                 Progress* progress, ReaderTally* out) {
  kf::KbServer::Reader reader(server);
  ReaderTally t;
  uint64_t last_seq = 0, sampled_seq = 0;
  auto observe = [&](uint64_t seq) {
    if (seq < last_seq) ++t.backwards;
    last_seq = seq;
  };
  while (phase.load(std::memory_order_acquire) == 0) std::this_thread::yield();
  for (size_t i = 0; phase.load(std::memory_order_relaxed) == 1; ++i) {
    const kf::KbSnapshotRef& snap = reader.Acquire();
    const uint64_t seq = snap->stats().seqno;
    observe(seq);
    if (args.corrupt == "seqno" && id == 0 && seq >= 3 && t.backwards == 0) {
      observe(seq - 2);
    }
    const auto& key = keys.at(i);
    const std::optional<kf::KbVerdict> v =
        snap->kb().Lookup(key.first, key.second);
    progress->lookups.store(++t.lookups, std::memory_order_relaxed);
    if (!v) {
      ++t.misses;
      continue;
    }
    if (seq % kSampleEvery == 1 && seq != sampled_seq) {
      sampled_seq = seq;
      ++t.sampled;
      uint32_t served = v->index;
      if (args.corrupt == "winner") {
        served = (served + 1) % static_cast<uint32_t>(snap->kb().num_triples());
      }
      if (WinnerByScan(snap->kb(), key.first, key.second) != served) ++t.wrong;
    }
  }
  *out = t;
}

}  // namespace

int RunServeStream(const Args& args, Report* rep) {
  Tracer tr(args.trace);
  const FusionOptions opts = ServeOptions();
  kf::Result<TsvCorpus> corpus = [&] {
    Span s(&tr, "store.corpus_load", -1);
    return kf::store::LoadCorpusFile(PathIn(args.dir, kCorpusFile));
  }();
  if (!corpus.ok()) {
    std::fprintf(stderr, "serve_stream: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  const SnapshotNaming naming = SnapshotNaming::FromCorpus(*corpus);
  const size_t total = corpus->dataset.num_records();
  const size_t base = total / 2;
  kf::extract::ExtractionDataset first =
      kf::extract::CloneRecordPrefix(corpus->dataset, base);
  std::vector<kf::extract::ExtractionRecord> tail =
      kf::extract::ReinternTail(corpus->dataset, base, &first);
  std::vector<std::vector<kf::extract::ExtractionRecord>> batches;
  for (size_t b = 0; b < tail.size(); b += kPublishBatch) {
    batches.emplace_back(tail.begin() + b,
                         tail.begin() + std::min(b + kPublishBatch, tail.size()));
  }
  if (args.corrupt == "drop" && !batches.empty()) batches.back().pop_back();

  std::optional<FusedKB> last;  // traced: the final generation
  kf::KbSnapshotRef final_gen;  // untraced: the final generation
  size_t final_records = 0;
  const std::string kb_path = PathIn(args.dir, kKbFile);

  if (args.trace) {
    // KbServer::Publish, mirrored through a Session call by call:
    // Append -> Refuse -> Snapshot per generation.
    kf::Session session(std::move(first));
    if (!session.Fuse(opts).ok()) return 1;
    std::vector<std::pair<std::string, std::string>> keys;
    {
      kf::Result<FusedKB> gen1 = session.Snapshot(naming);
      if (!gen1.ok()) return 1;
      keys = WinnerKeys(*gen1);
    }
    double refuse_rounds = 0;
    rep->Set("setup_s", Seconds(args.t0_ns, NowNs()));
    for (size_t b = 0; b < batches.size(); ++b) {
      const int i = static_cast<int>(b);
      Span publish(&tr, "publish", i);
      ++rep->attempted;
      kf::Status st;
      {
        Span s(&tr, "kf.append", i);
        st = session.Append(batches[b]);
      }
      if (!st.ok()) { Fail(rep, "append", st); continue; }
      {
        Span s(&tr, "fusion.refuse", i);
        kf::Result<kf::fusion::FusionResult> r = session.Refuse();
        if (!r.ok()) { Fail(rep, "refuse", r.status()); continue; }
        refuse_rounds += static_cast<double>(r->num_rounds);
      }
      Span s(&tr, "kf.snapshot", i);
      kf::Result<FusedKB> snap = session.Snapshot(naming);
      if (!snap.ok()) { Fail(rep, "snapshot", snap.status()); continue; }
      last = std::move(snap).value();
    }
    if (!last) return 1;
    final_records = session.dataset().num_records();
    rep->Set("store.corpus_load_s", Median(tr.Each("store.corpus_load")));
    rep->Set("fusion.refuse_ms", 1e3 * Median(tr.Each("fusion.refuse")));
    rep->Set("fusion.refuse_rounds", refuse_rounds);
    rep->Set("kf.snapshot_ms", 1e3 * Median(tr.Each("kf.snapshot")));
    CheckCoverage(tr, "publish", rep);
    MeasureLookupNs(*last, keys, args, rep);
    // Winners served by the final KB against a scan, on a spread of keys.
    uint64_t wrong = 0, sampled = 0;
    for (size_t k = 0; k < keys.size(); k += keys.size() / 16 + 1, ++sampled) {
      const auto v = last->Lookup(keys[k].first, keys[k].second);
      uint32_t served = v ? v->index : FusedKB::kNone;
      if (args.corrupt == "winner" && v) {
        served = (served + 1) % static_cast<uint32_t>(last->num_triples());
      }
      if (WinnerByScan(*last, keys[k].first, keys[k].second) != served) ++wrong;
    }
    rep->Check("served_winner", sampled > 0 && wrong == 0,
               Fmt("%.0f of %.0f sampled winners differ from a scan",
                   static_cast<double>(wrong), static_cast<double>(sampled)));
  } else {
    kf::KbServer::Options so;
    so.fusion = opts;
    so.naming = naming;
    kf::KbServer server(std::move(first), so);
    if (!server.Publish().ok()) return 1;
    const auto keys = WinnerKeys(server.Acquire()->kb());
    std::vector<KeyStream> streams;
    for (int r = 0; r < kReaders; ++r) {
      streams.emplace_back(keys, kKeyZipf, args.seed * 131 + r, 1 << 16);
    }
    std::atomic<int> phase{0};
    ReaderTally tally[kReaders];
    Progress progress[kReaders];
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back(ServeReader, std::cref(server), std::cref(streams[r]),
                           std::cref(phase), std::cref(args), r, &progress[r],
                           &tally[r]);
    }
    auto served = [&] {
      uint64_t n = 0;
      for (const Progress& p : progress) {
        n += p.lookups.load(std::memory_order_relaxed);
      }
      return n;
    };
    // Per publish: its wall time, and the readers' lookup rate during it.
    std::vector<double> publish_s, lookup_rate;
    rep->Set("setup_s", Seconds(args.t0_ns, NowNs()));
    const int64_t start = NowNs();
    phase.store(1, std::memory_order_release);
    for (const auto& batch : batches) {
      ++rep->attempted;
      const uint64_t n0 = served();
      const int64_t p0 = NowNs();
      kf::Result<kf::KbSnapshotStats> st = server.AppendAndPublish(batch);
      const int64_t p1 = NowNs();
      lookup_rate.push_back(static_cast<double>(served() - n0) /
                            Seconds(p0, p1));
      if (!st.ok()) { Fail(rep, "publish", st.status()); continue; }
      publish_s.push_back(Seconds(p0, p1));
    }
    const double stream_s = Seconds(start, NowNs());
    phase.store(2, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    rep->Set("peak_rss_mb", PeakRssMb());

    ReaderTally sum;
    for (const ReaderTally& t : tally) {
      sum.lookups += t.lookups;
      sum.misses += t.misses;
      sum.backwards += t.backwards;
      sum.sampled += t.sampled;
      sum.wrong += t.wrong;
    }
    rep->attempted += sum.lookups;
    rep->failed += sum.misses;
    rep->Set("pipeline_s", stream_s);
    rep->Set("publish_ms", 1e3 * Median(publish_s));
    rep->Set("publish_p90_ms", 1e3 * Quantile(publish_s, 0.9));
    rep->Set("lookups_per_s", Median(lookup_rate));
    rep->Check("seqno_monotonic", sum.backwards == 0,
               Fmt("%.0f backward steps over %.0f lookups",
                   static_cast<double>(sum.backwards),
                   static_cast<double>(sum.lookups)));
    rep->Check("served_winner", sum.sampled > 0 && sum.wrong == 0,
               Fmt("%.0f of %.0f sampled winners differ from a scan",
                   static_cast<double>(sum.wrong),
                   static_cast<double>(sum.sampled)));
    final_gen = server.Acquire();
    final_records = final_gen->stats().num_records;
  }

  const FusedKB& final_kb = args.trace ? *last : final_gen->kb();
  {
    Span s(&tr, "store.kb_export", -1);
    const kf::Status st = final_kb.ExportBinary(kb_path);
    if (!st.ok()) Fail(rep, "export", st);
  }
  if (args.trace) {
    rep->Set("store.kb_export_s", Median(tr.Each("store.kb_export")));
    tr.WriteJsonLines(PathIn(args.dir, "trace.jsonl"));
  } else {
    rep->Set("kb_file_mb", FileSizeMb(kb_path));
  }
  rep->Check("all_records_visible", final_records == total,
             Fmt("last generation holds %.0f of %.0f records",
                 static_cast<double>(final_records),
                 static_cast<double>(total)));
  CheckFixedPoint(CheckedRows(final_kb, args), opts, rep);
  return 0;
}

}  // namespace pb
