#include "emap/mdb/builder.hpp"

#include <algorithm>

#include "emap/common/error.hpp"
#include "emap/dsp/fir.hpp"
#include "emap/dsp/resample.hpp"
#include "emap/edf/edf.hpp"

namespace emap::mdb {

MdbBuilder::MdbBuilder()
    : store_(StoreInfo{kBaseFsHz,
                       static_cast<std::uint32_t>(kSignalSetLength)}) {}

std::size_t MdbBuilder::add_signal(std::span<const double> samples,
                                   double native_fs_hz,
                                   const std::string& source,
                                   std::uint32_t source_recording,
                                   const LabelAt& label_at,
                                   std::uint8_t class_tag) {
  require(native_fs_hz > 0.0, "MdbBuilder::add_signal: bad native rate");
  if (samples.empty()) {
    return 0;
  }

  // 1) Up-/down-sample to the base rate.
  const auto resampled = dsp::resample(samples, native_fs_hz, kBaseFsHz);

  // 2) Bandpass filter (identical design to the edge acquisition filter).
  dsp::FirDesign design;
  design.sample_rate_hz = kBaseFsHz;
  dsp::FirFilter filter(design);
  auto filtered = filter.apply(resampled);

  // 3) Drop the filter warm-up (one filter length) so slices don't start
  //    with the zero-history transient.
  const std::size_t head = std::min(filtered.size(), filter.taps());

  // 4) Slice and label.
  std::size_t inserted = 0;
  for (std::size_t begin = head;
       begin + kSignalSetLength <= filtered.size();
       begin += kSignalSetLength) {
    SignalSet set;
    // Rounded to f32 here, so the in-memory store holds exactly what its
    // saved file would.
    set.samples.assign(
        filtered.begin() + static_cast<std::ptrdiff_t>(begin),
        filtered.begin() +
            static_cast<std::ptrdiff_t>(begin + kSignalSetLength));
    set.source = source;
    set.source_recording = source_recording;
    set.start_sec = static_cast<double>(begin) / kBaseFsHz;
    set.class_tag = class_tag;

    // Label: fraction of slice samples whose time is annotated anomalous.
    std::size_t anomalous_samples = 0;
    if (label_at) {
      for (std::size_t k = 0; k < kSignalSetLength; ++k) {
        const double t = static_cast<double>(begin + k) / kBaseFsHz;
        if (label_at(t)) {
          ++anomalous_samples;
        }
      }
    }
    set.anomalous =
        static_cast<double>(anomalous_samples) >=
        kAnomalousFraction * static_cast<double>(kSignalSetLength);
    store_.insert(std::move(set));
    ++inserted;
  }
  return inserted;
}

std::size_t MdbBuilder::add_recording(const synth::Recording& recording,
                                      const std::string& source,
                                      std::uint32_t source_recording) {
  return add_signal(
      recording.samples, recording.fs(), source, source_recording,
      [&recording](double t) { return recording.anomalous_at(t); },
      static_cast<std::uint8_t>(recording.spec.cls));
}

std::size_t MdbBuilder::add_edf(const std::filesystem::path& path,
                                const std::string& source,
                                std::uint32_t source_recording,
                                const LabelAt& label_at,
                                std::uint8_t class_tag) {
  const auto file = edf::read_edf(path);
  require(!file.channels.empty(), "MdbBuilder::add_edf: no channels");
  return add_signal(file.channels.front().samples, file.sample_rate_hz,
                    source, source_recording, label_at, class_tag);
}

}  // namespace emap::mdb
