#include "emap/edf/edf.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "emap/common/error.hpp"
#include "emap/common/file_io.hpp"

namespace emap::edf {
namespace {

constexpr std::size_t kMainHeaderBytes = 256;
constexpr std::size_t kPerSignalHeaderBytes = 256;

// Appends `value` left-justified and space-padded to exactly `width` bytes.
void put_field(std::string& out, const std::string& value, std::size_t width) {
  require(value.size() <= width, "EDF: header field too long");
  out.append(value);
  out.append(width - value.size(), ' ');
}

void put_number(std::string& out, double value, std::size_t width) {
  std::ostringstream stream;
  stream << value;
  std::string text = stream.str();
  if (text.size() > width) {
    // Fall back to fixed-precision trimming for long fractions.
    stream.str("");
    stream.precision(static_cast<int>(width) - 2);
    stream << value;
    text = stream.str();
    if (text.size() > width) {
      text = text.substr(0, width);
    }
  }
  put_field(out, text, width);
}

void put_number(std::string& out, long long value, std::size_t width) {
  put_field(out, std::to_string(value), width);
}

std::string get_field(const std::vector<std::uint8_t>& bytes,
                      std::size_t offset, std::size_t width) {
  if (offset + width > bytes.size()) {
    throw CorruptData("EDF: truncated header");
  }
  std::string value(reinterpret_cast<const char*>(bytes.data()) + offset,
                    width);
  // Trim trailing spaces (EDF pads with spaces).
  const auto end = value.find_last_not_of(' ');
  return (end == std::string::npos) ? std::string() : value.substr(0, end + 1);
}

double get_number(const std::vector<std::uint8_t>& bytes, std::size_t offset,
                  std::size_t width, const char* what) {
  const std::string text = get_field(bytes, offset, width);
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed == 0) {
      throw CorruptData(std::string("EDF: empty numeric field: ") + what);
    }
    return value;
  } catch (const std::exception&) {
    throw CorruptData(std::string("EDF: bad numeric field: ") + what +
                      " = '" + text + "'");
  }
}

}  // namespace

std::vector<std::uint8_t> encode_edf(const EdfFile& file) {
  require(!file.channels.empty(), "encode_edf: no channels");
  require(file.sample_rate_hz > 0.0, "encode_edf: bad sample rate");
  require(file.record_duration_sec > 0.0, "encode_edf: bad record duration");
  const double spr_exact = file.sample_rate_hz * file.record_duration_sec;
  const auto samples_per_record =
      static_cast<std::size_t>(std::llround(spr_exact));
  require(samples_per_record > 0 &&
              std::abs(spr_exact - static_cast<double>(samples_per_record)) <
                  1e-6,
          "encode_edf: record duration must hold a whole number of samples");
  const std::size_t sample_count = file.channels.front().samples.size();
  require(sample_count > 0, "encode_edf: empty channel");
  for (const auto& channel : file.channels) {
    require(channel.samples.size() == sample_count,
            "encode_edf: channels must have equal length");
    require(channel.physical_max > channel.physical_min,
            "encode_edf: physical range must be non-empty");
    require(channel.digital_max > channel.digital_min,
            "encode_edf: digital range must be non-empty");
  }
  const std::size_t record_count =
      (sample_count + samples_per_record - 1) / samples_per_record;
  const std::size_t signal_count = file.channels.size();
  const std::size_t header_bytes =
      kMainHeaderBytes + signal_count * kPerSignalHeaderBytes;

  std::string header;
  header.reserve(header_bytes);
  put_field(header, "0", 8);  // version
  put_field(header, file.patient_id, 80);
  put_field(header, file.recording_id, 80);
  put_field(header, file.start_date, 8);
  put_field(header, file.start_time, 8);
  put_number(header, static_cast<long long>(header_bytes), 8);
  put_field(header, "", 44);  // reserved
  put_number(header, static_cast<long long>(record_count), 8);
  put_number(header, file.record_duration_sec, 8);
  put_number(header, static_cast<long long>(signal_count), 4);

  // Per-signal headers are stored field-wise: all labels, then all
  // transducers, and so on.
  for (const auto& c : file.channels) put_field(header, c.label, 16);
  for (const auto& c : file.channels) put_field(header, c.transducer, 80);
  for (const auto& c : file.channels) put_field(header, c.physical_dimension, 8);
  for (const auto& c : file.channels) put_number(header, c.physical_min, 8);
  for (const auto& c : file.channels) put_number(header, c.physical_max, 8);
  for (const auto& c : file.channels)
    put_number(header, static_cast<long long>(c.digital_min), 8);
  for (const auto& c : file.channels)
    put_number(header, static_cast<long long>(c.digital_max), 8);
  for (const auto& c : file.channels) put_field(header, c.prefiltering, 80);
  for (std::size_t s = 0; s < signal_count; ++s)
    put_number(header, static_cast<long long>(samples_per_record), 8);
  for (std::size_t s = 0; s < signal_count; ++s) put_field(header, "", 32);
  require(header.size() == header_bytes, "encode_edf: header size bug");

  std::vector<std::uint8_t> bytes(header.begin(), header.end());
  bytes.reserve(header_bytes +
                record_count * signal_count * samples_per_record * 2);

  for (std::size_t record = 0; record < record_count; ++record) {
    for (const auto& channel : file.channels) {
      const double gain = (channel.physical_max - channel.physical_min) /
                          static_cast<double>(channel.digital_max -
                                              channel.digital_min);
      for (std::size_t k = 0; k < samples_per_record; ++k) {
        const std::size_t index = record * samples_per_record + k;
        double physical =
            (index < channel.samples.size()) ? channel.samples[index] : 0.0;
        physical = std::clamp(physical, channel.physical_min,
                              channel.physical_max);
        const double digital_exact =
            (physical - channel.physical_min) / gain +
            static_cast<double>(channel.digital_min);
        const auto digital = static_cast<std::int32_t>(
            std::clamp(std::llround(digital_exact),
                       static_cast<long long>(channel.digital_min),
                       static_cast<long long>(channel.digital_max)));
        const auto raw = static_cast<std::uint16_t>(
            static_cast<std::int16_t>(digital));
        bytes.push_back(static_cast<std::uint8_t>(raw & 0xff));
        bytes.push_back(static_cast<std::uint8_t>(raw >> 8));
      }
    }
  }
  return bytes;
}

EdfFile decode_edf(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kMainHeaderBytes) {
    throw CorruptData("EDF: file shorter than main header");
  }
  EdfFile file;
  std::size_t offset = 0;
  const std::string version = get_field(bytes, offset, 8);
  offset += 8;
  if (version != "0") {
    throw CorruptData("EDF: unsupported version '" + version + "'");
  }
  file.patient_id = get_field(bytes, offset, 80);
  offset += 80;
  file.recording_id = get_field(bytes, offset, 80);
  offset += 80;
  file.start_date = get_field(bytes, offset, 8);
  offset += 8;
  file.start_time = get_field(bytes, offset, 8);
  offset += 8;
  const auto header_bytes =
      static_cast<std::size_t>(get_number(bytes, offset, 8, "header bytes"));
  offset += 8;
  offset += 44;  // reserved
  const auto record_count = static_cast<long long>(
      get_number(bytes, offset, 8, "record count"));
  offset += 8;
  file.record_duration_sec =
      get_number(bytes, offset, 8, "record duration");
  offset += 8;
  const auto signal_count =
      static_cast<std::size_t>(get_number(bytes, offset, 4, "signal count"));
  offset += 4;
  if (record_count < 0) {
    throw CorruptData("EDF: negative record count");
  }
  if (signal_count == 0) {
    throw CorruptData("EDF: zero signals");
  }
  if (file.record_duration_sec <= 0.0) {
    throw CorruptData("EDF: non-positive record duration");
  }
  const std::size_t expected_header =
      kMainHeaderBytes + signal_count * kPerSignalHeaderBytes;
  if (header_bytes != expected_header || bytes.size() < expected_header) {
    throw CorruptData("EDF: header size mismatch");
  }

  file.channels.assign(signal_count, EdfChannel{});
  for (auto& c : file.channels) {
    c.label = get_field(bytes, offset, 16);
    offset += 16;
  }
  for (auto& c : file.channels) {
    c.transducer = get_field(bytes, offset, 80);
    offset += 80;
  }
  for (auto& c : file.channels) {
    c.physical_dimension = get_field(bytes, offset, 8);
    offset += 8;
  }
  for (auto& c : file.channels) {
    c.physical_min = get_number(bytes, offset, 8, "physical min");
    offset += 8;
  }
  for (auto& c : file.channels) {
    c.physical_max = get_number(bytes, offset, 8, "physical max");
    offset += 8;
  }
  for (auto& c : file.channels) {
    c.digital_min =
        static_cast<std::int32_t>(get_number(bytes, offset, 8, "digital min"));
    offset += 8;
  }
  for (auto& c : file.channels) {
    c.digital_max =
        static_cast<std::int32_t>(get_number(bytes, offset, 8, "digital max"));
    offset += 8;
  }
  for (auto& c : file.channels) {
    c.prefiltering = get_field(bytes, offset, 80);
    offset += 80;
  }
  std::vector<std::size_t> samples_per_record(signal_count, 0);
  for (std::size_t s = 0; s < signal_count; ++s) {
    samples_per_record[s] = static_cast<std::size_t>(
        get_number(bytes, offset, 8, "samples per record"));
    offset += 8;
    if (samples_per_record[s] == 0) {
      throw CorruptData("EDF: zero samples per record");
    }
  }
  offset += signal_count * 32;  // reserved

  // Subset restriction: uniform rate across channels.
  for (std::size_t s = 1; s < signal_count; ++s) {
    if (samples_per_record[s] != samples_per_record[0]) {
      throw CorruptData("EDF: mixed per-channel rates not supported");
    }
  }
  file.sample_rate_hz =
      static_cast<double>(samples_per_record[0]) / file.record_duration_sec;

  std::size_t record_bytes = 0;
  for (std::size_t s = 0; s < signal_count; ++s) {
    record_bytes += samples_per_record[s] * 2;
  }
  const std::size_t payload = bytes.size() - expected_header;
  if (payload < static_cast<std::size_t>(record_count) * record_bytes) {
    throw CorruptData("EDF: truncated data records");
  }

  for (auto& c : file.channels) {
    if (c.physical_max <= c.physical_min || c.digital_max <= c.digital_min) {
      throw CorruptData("EDF: invalid calibration range");
    }
    c.samples.reserve(static_cast<std::size_t>(record_count) *
                      samples_per_record[0]);
  }

  std::size_t cursor = expected_header;
  for (long long record = 0; record < record_count; ++record) {
    for (std::size_t s = 0; s < signal_count; ++s) {
      auto& channel = file.channels[s];
      const double gain =
          (channel.physical_max - channel.physical_min) /
          static_cast<double>(channel.digital_max - channel.digital_min);
      for (std::size_t k = 0; k < samples_per_record[s]; ++k) {
        const auto raw = static_cast<std::uint16_t>(
            bytes[cursor] | (static_cast<std::uint16_t>(bytes[cursor + 1]) << 8));
        cursor += 2;
        const auto digital = static_cast<std::int16_t>(raw);
        channel.samples.push_back(
            channel.physical_min +
            gain * (static_cast<double>(digital) -
                    static_cast<double>(channel.digital_min)));
      }
    }
  }
  return file;
}

void write_edf(const std::filesystem::path& path, const EdfFile& file) {
  const auto bytes = encode_edf(file);
  std::ofstream stream(path, std::ios::binary | std::ios::trunc);
  if (!stream) {
    throw IoError("write_edf: cannot open " + path.string());
  }
  stream.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  if (!stream) {
    throw IoError("write_edf: write failed for " + path.string());
  }
}

EdfFile read_edf(const std::filesystem::path& path) {
  return decode_edf(read_file(path));
}

}  // namespace emap::edf
