// pipeline_bench — the library's end-to-end benchmark driver.
//
//   pipeline_bench gen --workload W --seed N --dir D [--scale S]
//       writes the seeded inputs of workload W into D.
//   pipeline_bench run --workload W --seed N --dir D [--scale S]
//                      --seconds T --trace 0|1 --t0-ns NS [--corrupt KIND]
//       runs W over D's inputs for about T seconds and prints one JSON
//       result line: untraced runs report the end-to-end metrics, traced
//       runs the per-layer ones. --t0-ns is the steady-clock reading at
//       which set-up started (set-up time is measured from it).
//
// run.py drives both modes; see README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench gen|run --workload "
               "batch_tsv|serve_stream|spill_budget --seed N --dir D "
               "[--scale S] [--seconds T] [--trace 0|1] [--t0-ns NS] "
               "[--corrupt prob|rank|drop|winner|seqno]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  if (argc < 2) return Usage();
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--scale") {
      args.scale = std::strtod(value, nullptr);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--t0-ns") {
      args.t0_ns = std::strtoll(value, nullptr, 10);
    } else if (flag == "--corrupt") {
      args.corrupt = value;
    } else {
      return Usage();
    }
  }
  if (args.dir.empty() || args.workload.empty()) return Usage();
  if (args.scale <= 0.0) {
    args.scale = pb::DefaultScale(args.workload);
    args.records = pb::DefaultRecords(args.workload);
  }
  if (args.t0_ns == 0) args.t0_ns = pb::NowNs();

  if (args.mode == "gen") return pb::Generate(args);
  if (args.mode != "run") return Usage();

  pb::Report report;
  int rc;
  if (args.workload == "batch_tsv") {
    rc = pb::RunBatchTsv(args, &report);
  } else if (args.workload == "serve_stream") {
    rc = pb::RunServeStream(args, &report);
  } else if (args.workload == "spill_budget") {
    rc = pb::RunSpillBudget(args, &report);
  } else {
    return Usage();
  }
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(), note.c_str());
  }
  if (rc != 0) return rc;
  const auto& defs = args.trace ? pb::kPerLayer : pb::kEndToEnd;
  if (!args.trace) {
    for (const pb::MetricDef& d : defs) {
      if (report.values.count(d.name) == 0) {
        std::fprintf(stderr, "%s: metric %s not measured\n",
                     args.workload.c_str(), d.name);
        return 1;
      }
    }
  }
  std::printf("%s\n", report.ToJson(defs, pb::kServeOnly).c_str());
  return 0;
}
