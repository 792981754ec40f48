#include "emap/obs/tracecat.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "emap/common/error.hpp"
#include "emap/obs/export.hpp"
#include "emap/obs/trace_context.hpp"

namespace emap::obs {

namespace {

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n')) {
    ++i;
  }
}

/// Parses a JSON string (cursor on the opening quote); false on truncation
/// or a bad escape.
bool parse_json_string(const std::string& s, std::size_t& i,
                       std::string& out) {
  if (i >= s.size() || s[i] != '"') {
    return false;
  }
  ++i;
  out.clear();
  while (i < s.size()) {
    const char c = s[i];
    if (c == '"') {
      ++i;
      return true;
    }
    if (c == '\\') {
      if (i + 1 >= s.size()) {
        return false;
      }
      const char esc = s[++i];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (i + 4 >= s.size()) {
            return false;
          }
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s[++i];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // The writers only ever escape control characters; anything
          // beyond ASCII degrades to '?' rather than growing a UTF-8
          // encoder here.
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return false;
      }
      ++i;
      continue;
    }
    out.push_back(c);
    ++i;
  }
  return false;  // ran off the end inside the string
}

double to_double(const std::map<std::string, std::string>& fields,
                 const char* key, double fallback) {
  const auto it = fields.find(key);
  return it == fields.end() ? fallback : std::atof(it->second.c_str());
}

std::uint64_t to_u64(const std::map<std::string, std::string>& fields,
                     const char* key) {
  const auto it = fields.find(key);
  return it == fields.end()
             ? 0
             : std::strtoull(it->second.c_str(), nullptr, 10);
}

std::string to_string(const std::map<std::string, std::string>& fields,
                      const char* key) {
  const auto it = fields.find(key);
  return it == fields.end() ? std::string() : it->second;
}

}  // namespace

bool parse_flat_json(const std::string& line,
                     std::map<std::string, std::string>& fields) {
  fields.clear();
  std::size_t i = 0;
  skip_ws(line, i);
  if (i >= line.size() || line[i] != '{') {
    return false;
  }
  ++i;
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') {
    ++i;
    skip_ws(line, i);
    return i == line.size();
  }
  while (true) {
    skip_ws(line, i);
    std::string key;
    if (!parse_json_string(line, i, key)) {
      return false;
    }
    skip_ws(line, i);
    if (i >= line.size() || line[i] != ':') {
      return false;
    }
    ++i;
    skip_ws(line, i);
    if (i >= line.size()) {
      return false;
    }
    std::string value;
    if (line[i] == '"') {
      if (!parse_json_string(line, i, value)) {
        return false;
      }
    } else if (line[i] == '{' || line[i] == '[') {
      return false;  // flat objects only
    } else {
      // Bare token: number / true / false / null, up to ',' or '}'.
      const std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') {
        ++i;
      }
      value = line.substr(start, i - start);
      while (!value.empty() &&
             (value.back() == ' ' || value.back() == '\t')) {
        value.pop_back();
      }
      if (value.empty()) {
        return false;
      }
    }
    fields[key] = std::move(value);
    skip_ws(line, i);
    if (i >= line.size()) {
      return false;
    }
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') {
      ++i;
      skip_ws(line, i);
      return i == line.size();
    }
    return false;
  }
}

SpanLoadResult load_spans_jsonl(const std::filesystem::path& path) {
  std::ifstream stream(path);
  if (!stream) {
    throw IoError("tracecat: cannot open span log " + path.string());
  }
  SpanLoadResult result;
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) {
      continue;
    }
    std::map<std::string, std::string> fields;
    if (!parse_flat_json(line, fields) || !fields.count("span_id") ||
        !fields.count("name")) {
      ++result.skipped_lines;
      continue;
    }
    SpanRecord span;
    span.id = to_u64(fields, "span_id");
    span.parent = to_u64(fields, "parent");
    span.trace_id = parse_trace_id_hex(to_string(fields, "trace_id"));
    span.name = to_string(fields, "name");
    span.category = to_string(fields, "category");
    span.sim_start_sec = to_double(fields, "sim_start_sec", -1.0);
    span.sim_dur_sec = to_double(fields, "sim_dur_sec", 0.0);
    result.spans.push_back(std::move(span));
  }
  return result;
}

std::vector<TraceCriticalPath> build_critical_paths(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, TraceCriticalPath> by_trace;
  for (const SpanRecord& span : spans) {
    if (span.trace_id == 0) {
      continue;
    }
    TraceCriticalPath& path = by_trace[span.trace_id];
    path.trace_id = span.trace_id;
    ++path.spans;
    if (span.category == "window") {
      // Root span: window_<index>, covering [index, index + 1).
      path.window_start_sec = span.sim_start_sec;
      if (span.name.rfind("window_", 0) == 0) {
        path.window_index = std::atoll(span.name.c_str() + 7);
      }
      path.has_edge = true;
    } else if (span.category == "upload") {
      path.uplink_sec += span.sim_dur_sec;
      path.has_edge = true;
    } else if (span.category == "download") {
      path.downlink_sec += span.sim_dur_sec;
      path.has_edge = true;
    } else if (span.category == "cloud-search") {
      path.scan_sec += span.sim_dur_sec;
      path.has_cloud = true;
    } else if (span.category == "retry") {
      path.retry_sec += span.sim_dur_sec;
      path.has_edge = true;
    } else if (span.category == "edge-track" ||
               span.category == "prediction" ||
               span.category == "filter") {
      path.edge_sec += span.sim_dur_sec;
      path.has_edge = true;
    } else if (span.category == "sample" || span.category == "cloud-call" ||
               span.category == "robust" || span.category == "recovery") {
      path.has_edge = true;  // edge-side bookkeeping; no latency leg
    }
  }
  std::vector<TraceCriticalPath> paths;
  paths.reserve(by_trace.size());
  for (auto& [trace_id, path] : by_trace) {
    paths.push_back(std::move(path));
  }
  std::sort(paths.begin(), paths.end(),
            [](const TraceCriticalPath& a, const TraceCriticalPath& b) {
              const bool a_known = a.window_index >= 0;
              const bool b_known = b.window_index >= 0;
              if (a_known != b_known) {
                return a_known;  // unknown windows sort last
              }
              if (a.window_index != b.window_index) {
                return a.window_index < b.window_index;
              }
              return a.trace_id < b.trace_id;
            });
  return paths;
}

std::string critical_path_table(
    const std::vector<TraceCriticalPath>& paths) {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-8s %-16s %9s %9s %9s %9s %9s %9s %6s\n", "window",
                "trace_id", "uplink", "scan", "downlink", "initial", "edge",
                "retry", "spans");
  out << line;
  TraceCriticalPath total;
  std::size_t complete = 0;
  for (const TraceCriticalPath& path : paths) {
    char window[24];
    if (path.window_index >= 0) {
      std::snprintf(window, sizeof(window), "%lld",
                    static_cast<long long>(path.window_index));
    } else {
      std::snprintf(window, sizeof(window), "?");
    }
    std::snprintf(line, sizeof(line),
                  "%-8s %-16s %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %6zu\n",
                  window, trace_id_hex(path.trace_id).c_str(),
                  path.uplink_sec, path.scan_sec, path.downlink_sec,
                  path.initial_response_sec(), path.edge_sec,
                  path.retry_sec, path.spans);
    out << line;
    total.uplink_sec += path.uplink_sec;
    total.scan_sec += path.scan_sec;
    total.downlink_sec += path.downlink_sec;
    total.edge_sec += path.edge_sec;
    total.retry_sec += path.retry_sec;
    total.spans += path.spans;
    if (path.complete()) {
      ++complete;
    }
  }
  std::snprintf(line, sizeof(line),
                "%-8s %-16s %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %6zu\n",
                "total", "-", total.uplink_sec, total.scan_sec,
                total.downlink_sec, total.initial_response_sec(),
                total.edge_sec, total.retry_sec, total.spans);
  out << line;
  std::snprintf(line, sizeof(line),
                "%zu traces (%zu complete edge+cloud)\n", paths.size(),
                complete);
  out << line;
  return out.str();
}

std::string critical_path_jsonl(
    const std::vector<TraceCriticalPath>& paths) {
  std::ostringstream out;
  for (const TraceCriticalPath& path : paths) {
    JsonWriter json;
    json.field("trace_id", trace_id_hex(path.trace_id))
        .field("window",
               static_cast<double>(path.window_index))
        .field("uplink_sec", path.uplink_sec)
        .field("scan_sec", path.scan_sec)
        .field("downlink_sec", path.downlink_sec)
        .field("initial_response_sec", path.initial_response_sec())
        .field("edge_sec", path.edge_sec)
        .field("retry_sec", path.retry_sec)
        .field("spans", static_cast<std::uint64_t>(path.spans))
        .field("complete", path.complete());
    out << json.str() << '\n';
  }
  return out.str();
}

}  // namespace emap::obs
