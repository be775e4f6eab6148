#include "util/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "test_temp_path.h"

namespace wtpgsched {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CsvEscapeTest, PlainFieldUnchanged) {
  EXPECT_EQ(CsvWriter::Escape("abc"), "abc");
}

TEST(CsvEscapeTest, CommaQuoted) {
  EXPECT_EQ(CsvWriter::Escape("a,b"), "\"a,b\"");
}

TEST(CsvEscapeTest, QuoteDoubled) {
  EXPECT_EQ(CsvWriter::Escape("a\"b"), "\"a\"\"b\"");
}

TEST(CsvEscapeTest, NewlineQuoted) {
  EXPECT_EQ(CsvWriter::Escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriterTest, WritesRows) {
  const std::string path = UniqueTempPath("csv_test.csv");
  CsvWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  w.WriteHeader({"x", "y"});
  w.WriteRow({"1", "2"});
  w.WriteRow({"a,b", "c"});
  w.Close();
  EXPECT_EQ(ReadAll(path), "x,y\n1,2\n\"a,b\",c\n");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, OpenFailsOnBadPath) {
  CsvWriter w;
  EXPECT_FALSE(w.Open("/nonexistent-dir-xyz/file.csv").ok());
  EXPECT_FALSE(w.is_open());
}

}  // namespace
}  // namespace wtpgsched
