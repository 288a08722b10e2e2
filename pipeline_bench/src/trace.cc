#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace pb {

std::vector<double> Tracer::PerPass(const std::string& name) const {
  std::map<int, double> by_pass;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) by_pass[s.pass] += s.seconds();
  }
  std::vector<double> out;
  for (const auto& [pass, seconds] : by_pass) out.push_back(seconds);
  return out;
}

std::vector<double> Tracer::Each(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

double Tracer::MinChildCoverage(const std::string& outer) const {
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) covered[s.parent] += s.end_ns - s.start_ns;
  }
  double worst = 1.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.name != outer || s.end_ns <= s.start_ns) continue;
    worst = std::min(worst, static_cast<double>(covered[i]) /
                                static_cast<double>(s.end_ns - s.start_ns));
  }
  return worst;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"pass\": %d}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.pass);
  }
  return std::fclose(f) == 0;
}

}  // namespace pb
