#include "emap/obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>

#include "emap/common/error.hpp"
#include "emap/obs/trace_context.hpp"

namespace emap::obs {
namespace {

/// Shortest round-trippable decimal form of a double (JSON-safe: non-finite
/// values become null at the JsonWriter layer, "+Inf" at Prometheus).
std::string format_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string prometheus_value(double value) {
  if (std::isnan(value)) {
    return "NaN";
  }
  if (std::isinf(value)) {
    return value > 0 ? "+Inf" : "-Inf";
  }
  return format_double(value);
}

std::string prometheus_escape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (char c : text) {
    if (c == '\\' || c == '"') {
      escaped += '\\';
      escaped += c;
    } else if (c == '\n') {
      escaped += "\\n";
    } else {
      escaped += c;
    }
  }
  return escaped;
}

std::string label_block(const Labels& labels) {
  std::string block;
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (key.empty()) {
      continue;  // a nameless label cannot be represented; drop it
    }
    block += first ? '{' : ',';
    first = false;
    block += prometheus_sanitize_name(key, /*is_label=*/true) + "=\"" +
             prometheus_escape(value) + "\"";
  }
  if (!block.empty()) {
    block += '}';
  }
  return block;
}

/// `labels` plus one extra pair (for histogram `le` bounds).
std::string label_block_with(const Labels& labels, const std::string& key,
                             const std::string& value) {
  Labels extended = labels;
  extended.emplace_back(key, value);
  return label_block(extended);
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string prometheus_sanitize_name(const std::string& name,
                                     bool is_label) {
  if (name.empty()) {
    return "_";
  }
  std::string sanitized;
  sanitized.reserve(name.size() + 1);
  for (char c : name) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    const bool legal =
        alpha || digit || c == '_' || (c == ':' && !is_label);
    sanitized += legal ? c : '_';
  }
  if (sanitized.front() >= '0' && sanitized.front() <= '9') {
    sanitized.insert(sanitized.begin(), '_');
  }
  return sanitized;
}

std::string to_prometheus(const MetricsRegistry& registry) {
  // Group label variants of one family together before emitting: entries
  // arrive in registration order, where variants of a family need not be
  // contiguous (e.g. a second label value created many metrics later), and
  // the exposition format allows exactly one # HELP/# TYPE per family.
  std::vector<std::vector<const MetricEntry*>> families;
  for (const MetricEntry* entry : registry.entries()) {
    auto match = std::find_if(families.begin(), families.end(),
                              [entry](const auto& family) {
                                return family.front()->name == entry->name;
                              });
    if (match == families.end()) {
      families.push_back({entry});
    } else {
      match->push_back(entry);
    }
  }

  std::ostringstream out;
  for (const auto& family : families) {
    const std::string name = prometheus_sanitize_name(family.front()->name);
    const std::string* help = nullptr;
    for (const MetricEntry* entry : family) {
      if (!entry->help.empty()) {
        help = &entry->help;
        break;
      }
    }
    if (help != nullptr) {
      out << "# HELP " << name << ' ' << prometheus_escape(*help) << '\n';
    }
    out << "# TYPE " << name << ' ' << kind_name(family.front()->kind)
        << '\n';
    for (const MetricEntry* entry : family) {
      const std::string labels = label_block(entry->labels);
      switch (entry->kind) {
        case MetricKind::kCounter:
          out << name << labels << ' ' << entry->counter->value() << '\n';
          break;
        case MetricKind::kGauge:
          out << name << labels << ' '
              << prometheus_value(entry->gauge->value()) << '\n';
          break;
        case MetricKind::kHistogram: {
          const Histogram& histogram = *entry->histogram;
          // Cumulative buckets; only populated bounds are emitted (a
          // sparse but valid exposition — `le` bounds stay cumulative).
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < histogram.bounds().size(); ++i) {
            const std::uint64_t in_bucket = histogram.bucket_count(i);
            if (in_bucket == 0) {
              continue;
            }
            cumulative += in_bucket;
            out << name << "_bucket"
                << label_block_with(entry->labels, "le",
                                    format_double(histogram.bounds()[i]))
                << ' ' << cumulative << '\n';
          }
          out << name << "_bucket"
              << label_block_with(entry->labels, "le", "+Inf") << ' '
              << histogram.count() << '\n';
          out << name << "_sum" << labels << ' '
              << prometheus_value(histogram.sum()) << '\n';
          out << name << "_count" << labels << ' ' << histogram.count()
              << '\n';
          break;
        }
      }
    }
  }
  return out.str();
}

void write_prometheus(const std::filesystem::path& path,
                      const MetricsRegistry& registry) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream stream(path);
  require(static_cast<bool>(stream),
          ("write_prometheus: cannot open " + path.string()).c_str());
  stream << to_prometheus(registry);
}

std::string metrics_table(const MetricsRegistry& registry) {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-38s %-28s %-9s %12s %12s %12s %12s\n",
                "metric", "labels", "type", "count/value", "mean", "p50",
                "p95");
  out << line;
  out << std::string(129, '-') << '\n';
  for (const MetricEntry* entry : registry.entries()) {
    std::string labels;
    for (const auto& [key, value] : entry->labels) {
      if (!labels.empty()) {
        labels += ',';
      }
      labels += key + "=" + value;
    }
    switch (entry->kind) {
      case MetricKind::kCounter:
        std::snprintf(line, sizeof(line),
                      "%-38s %-28s %-9s %12llu %12s %12s %12s\n",
                      entry->name.c_str(), labels.c_str(), "counter",
                      static_cast<unsigned long long>(
                          entry->counter->value()),
                      "-", "-", "-");
        break;
      case MetricKind::kGauge:
        std::snprintf(line, sizeof(line),
                      "%-38s %-28s %-9s %12.6g %12s %12s %12s\n",
                      entry->name.c_str(), labels.c_str(), "gauge",
                      entry->gauge->value(), "-", "-", "-");
        break;
      case MetricKind::kHistogram: {
        const Histogram& histogram = *entry->histogram;
        std::snprintf(line, sizeof(line),
                      "%-38s %-28s %-9s %12llu %12.6g %12.6g %12.6g\n",
                      entry->name.c_str(), labels.c_str(), "histogram",
                      static_cast<unsigned long long>(histogram.count()),
                      histogram.mean(), histogram.quantile(0.5),
                      histogram.quantile(0.95));
        break;
      }
    }
    out << line;
  }
  return out.str();
}

namespace {

/// The span categories drawn as Fig. 9 rows, top to bottom.
constexpr const char* kFig9Rows[] = {
    "sample",   "filter",     "upload",     "cloud-search",
    "download", "edge-track", "prediction",
};

/// Stable track order: the Fig. 9 rows first, then first-seen categories.
std::vector<std::string> trace_tracks(const std::vector<SpanRecord>& spans) {
  std::vector<std::string> tracks(std::begin(kFig9Rows), std::end(kFig9Rows));
  for (const auto& span : spans) {
    if (std::find(tracks.begin(), tracks.end(), span.category) ==
        tracks.end()) {
      tracks.push_back(span.category);
    }
  }
  return tracks;
}

}  // namespace

std::string to_chrome_trace(const Tracer& tracer) {
  const auto spans = tracer.spans();
  const auto tracks = trace_tracks(spans);
  auto tid_of = [&tracks](const std::string& category) {
    const auto it = std::find(tracks.begin(), tracks.end(), category);
    return static_cast<std::size_t>(it - tracks.begin()) + 1;
  };

  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    if (!first) {
      out << ',';
    }
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << (i + 1) << ",\"args\":{\"name\":\"" << json_escape(tracks[i])
        << "\"}}";
    out << ",{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":"
        << (i + 1) << ",\"args\":{\"sort_index\":" << (i + 1) << "}}";
  }
  for (const auto& span : spans) {
    if (!first) {
      out << ',';
    }
    first = false;
    out << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
        << json_escape(span.category) << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":" << tid_of(span.category) << ",\"ts\":"
        << format_double(span.sim_start_sec * 1e6)
        << ",\"dur\":" << format_double(span.sim_dur_sec * 1e6)
        << ",\"args\":{\"span_id\":" << span.id << ",\"parent\":"
        << span.parent << ",\"trace_id\":\"" << trace_id_hex(span.trace_id)
        << "\",\"clock\":\"sim\"}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

void write_chrome_trace(const std::filesystem::path& path,
                        const Tracer& tracer) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream stream(path);
  require(static_cast<bool>(stream),
          ("write_chrome_trace: cannot open " + path.string()).c_str());
  stream << to_chrome_trace(tracer) << '\n';
}

std::string render_timeline_ascii(const Tracer& tracer, double horizon_sec,
                                  std::size_t columns) {
  require(horizon_sec > 0.0, "render_timeline_ascii: horizon must be > 0");
  require(columns >= 10, "render_timeline_ascii: need at least 10 columns");
  const auto spans = tracer.spans();
  const double bucket = horizon_sec / static_cast<double>(columns);
  std::ostringstream out;
  for (const std::string_view row_name : kFig9Rows) {
    std::string row(columns, '.');
    for (const auto& span : spans) {
      const double start = span.sim_start_sec;
      const double end = start + span.sim_dur_sec;
      // A span entirely outside [0, horizon) has nothing to draw.
      if (span.category != row_name || start >= horizon_sec || end <= 0.0) {
        continue;
      }
      // Clamp the visible part to [0, horizon] before bucketing, so a span
      // straddling either edge fills up to the first or last bucket instead
      // of being dropped or indexing past the row.
      const auto first_col = std::min(
          static_cast<std::size_t>(std::max(0.0, start) / bucket),
          columns - 1);
      const auto last_col = std::min(
          static_cast<std::size_t>(std::min(horizon_sec, end) / bucket),
          columns - 1);
      std::fill(row.begin() + static_cast<std::ptrdiff_t>(first_col),
                row.begin() + static_cast<std::ptrdiff_t>(last_col) + 1, '#');
    }
    out << row_name
        << std::string(14 - std::min<std::size_t>(13, row_name.size()), ' ')
        << '|' << row << "|\n";
  }
  out << "time axis: 0 .. " << horizon_sec << " s (" << bucket
      << " s per column)\n";
  return out.str();
}

std::string span_json(const SpanRecord& span) {
  JsonWriter writer;
  writer.field("span_id", span.id);
  writer.field("parent", span.parent);
  writer.field("trace_id", trace_id_hex(span.trace_id));
  writer.field("name", span.name);
  writer.field("category", span.category);
  writer.field("sim_start_sec", span.sim_start_sec);
  writer.field("sim_dur_sec", span.sim_dur_sec);
  return writer.str();
}

void write_spans_jsonl(const std::filesystem::path& path,
                       const Tracer& tracer) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream stream(path);
  require(static_cast<bool>(stream),
          ("write_spans_jsonl: cannot open " + path.string()).c_str());
  for (const auto& span : tracer.spans()) {
    stream << span_json(span) << '\n';
  }
}

std::string json_escape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\r':
        escaped += "\\r";
        break;
      case '\t':
        escaped += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          escaped += buffer;
        } else {
          escaped += static_cast<char>(c);
        }
    }
  }
  return escaped;
}

void JsonWriter::begin_field(const std::string& key) {
  if (!body_.empty()) {
    body_ += ',';
  }
  body_ += '"' + json_escape(key) + "\":";
}

JsonWriter& JsonWriter::field(const std::string& key, double value) {
  begin_field(key);
  body_ += std::isfinite(value) ? format_double(value) : "null";
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& key, std::uint64_t value) {
  begin_field(key);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& key,
                              const std::string& value) {
  begin_field(key);
  body_ += '"' + json_escape(value) + '"';
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& key, const char* value) {
  return field(key, std::string(value != nullptr ? value : ""));
}

JsonWriter& JsonWriter::field(const std::string& key, bool value) {
  begin_field(key);
  body_ += value ? "true" : "false";
  return *this;
}

std::string JsonWriter::str() const { return '{' + body_ + '}'; }

void append_jsonl_line(const std::filesystem::path& path,
                       const std::string& line) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream stream(path, std::ios::app);
  require(static_cast<bool>(stream),
          ("append_jsonl_line: cannot open " + path.string()).c_str());
  stream << line << '\n';
}

}  // namespace emap::obs
