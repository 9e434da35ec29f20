#include "common.h"

#include <cstdarg>
#include <fstream>
#include <stdexcept>

#include "service/json.h"

namespace perfbench {

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and would
  // report the parent's footprint at fork time when that is larger.
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void Result::line(const char* fmt, ...) {
  char buf[512];
  std::va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  report.emplace_back(buf);
}

namespace {

std::string quoted(const std::string& s) {
  std::string out(1, '"');
  out += fairsfe::service::json_escape(s);
  out += '"';
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string string_array(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += quoted(v[i]);
  }
  return out + "]";
}

}  // namespace

bool Result::write(const std::string& path) const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ",";
    first = false;
    out += quoted(name) + ":{\"value\":" + number(m.value) + ",\"unit\":" + quoted(m.unit) + "}";
  }
  out += "},\"errors\":" + string_array(errors);
  out += ",\"report\":" + string_array(report) + "}\n";
  std::ofstream f(path);
  f << out;
  return static_cast<bool>(f);
}

}  // namespace perfbench
