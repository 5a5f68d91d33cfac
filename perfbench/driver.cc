// perfbench_driver: one benchmark run of one workload.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE]
//
// Workloads: corpus-mix, corpus-tm (perfbench/README.md).
// Prints a human-readable summary, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this program and is the benchmark's entry point.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "perfbench/bench.h"

namespace {

int Usage() {
  std::cerr << "usage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n";
  return 2;
}

// JSON string escaping for the few strings we print (metric names and
// units are plain ASCII already; this guards the problem lines).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 != 1 || config.seconds <= 0) return Usage();

  perfbench::InstructionCounter counter;
  perfbench::Report report;
  if (config.workload == "corpus-mix" || config.workload == "corpus-tm") {
    perfbench::RunCorpusWorkload(config, counter, &report);
  } else {
    std::cerr << "unknown workload " << config.workload << "\n";
    return 2;
  }

  for (const std::string& problem : report.problems) {
    std::cout << "CHECK FAILED: " << problem << "\n";
  }
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  char buffer[64];
  for (const auto& [name, metric] : report.metrics) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", metric.value);
    std::cout << (first ? "" : ", ") << Quote(name) << ": {\"value\": "
              << buffer << ", \"unit\": " << Quote(metric.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
