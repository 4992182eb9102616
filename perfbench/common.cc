#include "perfbench/common.h"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

bool ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

void RotateCpu(int k) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) {
          out.push_back(c);
        }
      }
    }
    return out;
  }();
  if (cpus.size() < 2) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<size_t>(k) % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

uint32_t Spans::Name(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint32_t>(i);
    }
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<uint32_t>(names_.size() - 1);
}

const Spans::Totals& Spans::totals(const std::string& name) const {
  static const Totals kNone;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return totals_[i];
    }
  }
  return kNone;
}

bool Spans::Write(const std::string& path, size_t max_spans) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "# perfbench spans v1: %zu spans recorded, %zu written\n",
               spans_.size(), std::min(spans_.size(), max_spans));
  std::fprintf(f, "# layer\tname\tcalls\ttotal_s\tself_s\n");
  for (size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "layer\t%s\t%llu\t%.9f\t%.9f\n", names_[i].c_str(),
                 static_cast<unsigned long long>(totals_[i].calls),
                 totals_[i].total_ns * 1e-9, totals_[i].self_ns * 1e-9);
  }
  std::fprintf(f, "# span\tid\tparent\trun\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "span\t%zu\t%d\t%u\t%s\t%llu\t%llu\n", i, s.parent, s.run,
                 names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
