#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace thermo {
namespace {

TEST(Table, RequiresAtLeastOneColumn) {
  EXPECT_THROW(Table({}), InvalidArgument);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.row(0).size(), 3u);
  EXPECT_EQ(t.row(0)[1], "");
}

TEST(Table, RejectsWideRows) {
  Table t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), InvalidArgument);
}

TEST(Table, RowAccessOutOfRangeThrows) {
  Table t({"a"});
  EXPECT_THROW(t.row(0), InvalidArgument);
}

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "v"});
  t.add_row({"long-name", "1"});
  t.add_row({"x", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("| name      | v  |"), std::string::npos);
}

TEST(Table, CsvRoundTripSimple) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(CsvEscape, PlainFieldUntouched) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(CsvEscape, QuotesFieldsWithCommas) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscape, DoublesEmbeddedQuotes) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, QuotesNewlines) {
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

}  // namespace
}  // namespace thermo
