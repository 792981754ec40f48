// Whole-file reads for the binary formats (MDB stores, checkpoints, EDF).
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

namespace emap {

/// Reads the whole file at `path` with one sized read.  Throws IoError when
/// the file cannot be opened or sized, or yields fewer bytes than its size.
std::vector<std::uint8_t> read_file(const std::filesystem::path& path);

}  // namespace emap
