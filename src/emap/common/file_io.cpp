#include "emap/common/file_io.hpp"

#include <fstream>

#include "emap/common/error.hpp"

namespace emap {

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  // file_size fails for anything but a regular file (a directory opens as
  // a stream on Linux but has no size to read).
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) {
    throw IoError("read_file: cannot size " + path.string() + ": " +
                  error.message());
  }
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    throw IoError("read_file: cannot open " + path.string());
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (!bytes.empty() &&
      !stream.read(reinterpret_cast<char*>(bytes.data()),
                   static_cast<std::streamsize>(bytes.size()))) {
    throw IoError("read_file: short read of " + path.string());
  }
  return bytes;
}

}  // namespace emap
