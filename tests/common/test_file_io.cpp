#include "emap/common/file_io.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "emap/common/error.hpp"
#include "support/test_util.hpp"

namespace emap {
namespace {

void write_bytes(const std::filesystem::path& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(ReadFile, ReturnsEveryByte) {
  testing::TempDir dir("read_file");
  std::vector<std::uint8_t> bytes(70'001);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 131);  // zeros and 0x1a too
  }
  write_bytes(dir.path() / "blob", bytes);
  EXPECT_EQ(read_file(dir.path() / "blob"), bytes);
}

TEST(ReadFile, EmptyFileIsEmpty) {
  testing::TempDir dir("read_file");
  write_bytes(dir.path() / "empty", {});
  EXPECT_TRUE(read_file(dir.path() / "empty").empty());
}

TEST(ReadFile, MissingFileThrowsIoError) {
  testing::TempDir dir("read_file");
  EXPECT_THROW(read_file(dir.path() / "absent"), IoError);
}

TEST(ReadFile, DirectoryThrowsIoError) {
  testing::TempDir dir("read_file");
  EXPECT_THROW(read_file(dir.path()), IoError);
}

}  // namespace
}  // namespace emap
