// Shared pieces of the pipeline benchmark: arguments, the run report,
// statistics helpers and the Zipf key sampler the readers use.
#ifndef PIPELINE_BENCH_BENCH_H_
#define PIPELINE_BENCH_BENCH_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fusion/options.h"
#include "kf/fused_kb.h"
#include "trace.h"

namespace pb {

/// The input scale each workload runs at unless --scale overrides it.
double DefaultScale(const std::string& workload);
/// At its default scale a workload keeps only this many records of the
/// generated corpus (the corpus' size varies with the seed; the work of a
/// run should not). With --scale the whole corpus is used.
size_t DefaultRecords(const std::string& workload);

// Files the generator writes into the work dir.
inline constexpr char kTsvFile[] = "extractions.tsv";
inline constexpr char kGoldFile[] = "gold.tsv";
inline constexpr char kCorpusFile[] = "corpus.bin";
inline constexpr char kBudgetFile[] = "budget.txt";
inline std::string PathIn(const std::string& dir, const char* name) {
  return dir + "/" + name;
}

/// batch_tsv and spill_budget: the POPACCU preset on 2 workers.
kf::fusion::FusionOptions PopAccuOptions();
/// serve_stream: the examples/serve_kb.cpp server config on 1 worker.
kf::fusion::FusionOptions ServeOptions();
/// Records per AppendAndPublish in serve_stream.
inline constexpr size_t kPublishBatch = 256;

struct Args {
  std::string mode;      // "gen" or "run"
  std::string workload;  // batch_tsv | serve_stream | spill_budget
  std::string dir;       // work dir holding the generated inputs
  uint64_t seed = 1;
  double scale = 0.0;    // 0 = the workload's default
  size_t records = 0;    // records kept by `gen`; 0 = all
  double seconds = 10.0;
  bool trace = false;
  /// steady_clock reading (ns) taken when the run's set-up started.
  int64_t t0_ns = 0;
  /// Deliberate output corruption for the self-test ("" = none).
  std::string corrupt;
};

/// A metric the run reports: name and unit, as in BENCHMARK.json.
struct MetricDef {
  const char* name;
  const char* unit;
};
/// Reported by untraced runs; every workload measures every one.
extern const std::vector<MetricDef> kEndToEnd;
/// Reported by traced runs; a layer a workload never calls reads 0.
extern const std::vector<MetricDef> kPerLayer;
/// Reported in addition by serve_stream, the one workload that publishes.
extern const std::vector<MetricDef> kServeOnly;

/// What one run reports: operation counts, metric values, and the verdict
/// of every output check.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  std::map<std::string, bool> checks;
  std::vector<std::string> notes;  // check details, printed to stderr

  void Set(const std::string& name, double value) { values[name] = value; }
  void Check(const std::string& name, bool ok, const std::string& detail);
  bool correct() const;
  /// The result line: the metrics of `defs` in order (missing ones read
  /// 0), those of `extras` that were measured, and the check verdicts.
  std::string ToJson(const std::vector<MetricDef>& defs,
                     const std::vector<MetricDef>& extras) const;
};

/// Writes the generated inputs of a workload into args.dir.
int Generate(const Args& args);
/// Runs one workload over the inputs in args.dir.
int RunBatchTsv(const Args& args, Report* report);
int RunServeStream(const Args& args, Report* report);
int RunSpillBudget(const Args& args, Report* report);

// ---- helpers ----

double Median(std::vector<double> v);
double Min(const std::vector<double>& v);
/// The q-quantile by nearest rank (q in (0,1]): the smallest sample with
/// at least a q share of the samples at or below it.
double Quantile(std::vector<double> v, double q);
double Seconds(int64_t from_ns, int64_t to_ns);
/// Peak resident set of this process so far, in MB (VmHWM).
double PeakRssMb();

/// Reads VmHWM every millisecond on a thread of its own until Stop().
/// A budgeted Session::Fuse resets the kernel's high-water mark when its
/// round loop starts (kf::PeakRssTracker), so one read after a pass would
/// miss everything before that reset; the largest sample misses only a
/// rise within the last millisecond before it.
class PeakRssSampler {
 public:
  PeakRssSampler();
  ~PeakRssSampler() { Stop(); }
  PeakRssSampler(const PeakRssSampler&) = delete;
  PeakRssSampler& operator=(const PeakRssSampler&) = delete;

  /// Stops sampling; returns the largest VmHWM seen, in MB.
  double Stop();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  double peak_mb_ = 0.0;
  std::thread thread_;
};

double FileSizeMb(const std::string& path);

/// Zipf-skewed draws over (subject, predicate) keys: ranks are assigned by
/// a seeded shuffle, rank r is drawn with weight 1 / r^exponent.
class KeyStream {
 public:
  KeyStream(std::vector<std::pair<std::string, std::string>> keys,
            double exponent, uint64_t seed, size_t length);
  const std::pair<std::string, std::string>& at(size_t i) const {
    return keys_[order_[i % order_.size()]];
  }

 private:
  std::vector<std::pair<std::string, std::string>> keys_;
  std::vector<uint32_t> order_;
};

/// Zipf exponent of the lookup keys.
inline constexpr double kKeyZipf = 1.0;

/// Every (subject, predicate) of `kb` whose item has a winning value.
std::vector<std::pair<std::string, std::string>> WinnerKeys(
    const kf::FusedKB& kb);

/// Single-thread lookup latency (ns) on one KB: the median over `blocks`
/// blocks of `per_block` lookups.
double LookupNs(const kf::FusedKB& kb,
                const std::vector<std::pair<std::string, std::string>>& keys,
                uint64_t seed, int blocks, size_t per_block, uint64_t* misses);

}  // namespace pb

#endif  // PIPELINE_BENCH_BENCH_H_
