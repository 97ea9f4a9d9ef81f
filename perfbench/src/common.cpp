// Tracer output, fingerprint formatting, expected-value lookup and the
// machine facts recorded with every run.
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(duration_us(s));
  }
  return out;
}

std::vector<double> Tracer::self_us(const std::string& name) const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += duration_us(s);
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(duration_us(spans_[i]) - covered[i]);
  }
  return out;
}

void Tracer::write_json(std::ostream& out) const {
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << "}";
  }
  out << "]";
}

bool write_trace_file(const std::string& path, const std::string& workload,
                      const Traces& parts) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\":\"" << workload << "\",\"parts\":[";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << parts[i].first << "\",\"spans\":";
    parts[i].second.write_json(out);
    out << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string Fingerprint::str() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "r%" PRIu64 "-phi%016" PRIx64 "-k%016" PRIx64 "-h%016" PRIx64
                "-a%016" PRIx64 "-d%016" PRIx64,
                rounds, phi_bits, disc_bits, load_hash, arrivals_bits, departures_bits);
  return buf;
}

std::string expected_fingerprint(const std::string& workload) {
  std::ifstream in(PERFBENCH_EXPECTED_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, fp;
    if (fields >> name >> fp && name == workload) return fp;
  }
  return "";
}

std::size_t hardware_workers() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t llc_bytes() {
  // The highest cache level sysfs lists for cpu0.
  std::size_t best = 0;
  int best_level = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream level_in(dir + "level");
    std::ifstream size_in(dir + "size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size) || size.empty()) continue;
    std::size_t bytes = std::stoull(size);
    const char suffix = size.back();
    if (suffix == 'K') bytes <<= 10;
    if (suffix == 'M') bytes <<= 20;
    if (level >= best_level) {
      best_level = level;
      best = bytes;
    }
  }
  if (best == 0) {
    const long sys = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (sys > 0) best = static_cast<std::size_t>(sys);
  }
  return best;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
