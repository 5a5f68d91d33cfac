#include <linux/perf_event.h>
#include <malloc.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "perfbench/bench.h"

namespace perfbench {

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

InstructionCounter::InstructionCounter() {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = 1;
  fd_ = static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0 /* this process */,
              -1 /* any cpu */, -1 /* no group */, 0));
  if (fd_ < 0) {
    std::fprintf(stderr,
                 "perfbench: cannot count instructions: perf_event_open: "
                 "%s (see /proc/sys/kernel/perf_event_paranoid)\n",
                 std::strerror(errno));
    std::exit(1);
  }
  if (Read() == 0) {
    std::fprintf(stderr, "perfbench: the instruction counter reads 0\n");
    std::exit(1);
  }
}

InstructionCounter::~InstructionCounter() { close(fd_); }

std::uint64_t InstructionCounter::Read() const {
  std::uint64_t value = 0;
  if (read(fd_, &value, sizeof(value)) != sizeof(value)) {
    std::fprintf(stderr, "perfbench: reading the instruction counter: %s\n",
                 std::strerror(errno));
    std::exit(1);
  }
  return value;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) {
    std::fprintf(stderr,
                 "perfbench: cannot reset the peak RSS mark "
                 "(/proc/self/clear_refs)\n");
    std::exit(1);
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  std::fprintf(stderr, "perfbench: no VmHWM in /proc/self/status\n");
  std::exit(1);
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"name\": \"" << span.name << "\", \"instance\": "
        << span.instance << ", \"start_ms\": " << span.start_ms
        << ", \"end_ms\": " << span.end_ms << ", \"parent\": "
        << span.parent << "}\n";
  }
  return static_cast<bool>(out);
}

std::uint64_t ThreadMinorFaults() {
  rusage usage;
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

}  // namespace perfbench
