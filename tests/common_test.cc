#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/csv.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"

namespace rtgcn {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::InvalidArgument("bad ", 42);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad 42");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad 42");
}

TEST(ResultTest, Value) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie(), 7);
}

TEST(ResultTest, Status) {
  Result<int> err(Status::NotFound("missing"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(StringsTest, SplitTrimJoin) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Join({"x", "y"}, ", "), "x, y");
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
}

TEST(StringsTest, Formatting) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFixed(-0.5, 3), "-0.500");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadLeft("abcde", 4), "abcde");  // never truncates
}

// Builds argv (with a fake program name) and parses it into `fs`.
Status ParseFlagSet(FlagSet* fs, std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prog"));
  for (std::string& a : args) argv.push_back(a.data());
  return fs->Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagSetTest, TypedParsingAllForms) {
  int64_t n = 4;
  int small = 2;
  double alpha = 0.1;
  float beta = 1.0f;
  std::string name = "default";
  bool verbose = false;
  FlagSet fs;
  fs.Register("n", &n, "");
  fs.Register("small", &small, "");
  fs.Register("alpha", &alpha, "");
  fs.Register("beta", &beta, "");
  fs.Register("name", &name, "");
  fs.Register("verbose", &verbose, "");
  ASSERT_TRUE(ParseFlagSet(&fs, {"--n", "32", "--small=7", "--alpha", "0.5",
                                 "--beta=2.5", "--name=x y", "--verbose"})
                  .ok());
  EXPECT_EQ(n, 32);
  EXPECT_EQ(small, 7);
  EXPECT_DOUBLE_EQ(alpha, 0.5);
  EXPECT_FLOAT_EQ(beta, 2.5f);
  EXPECT_EQ(name, "x y");
  EXPECT_TRUE(verbose);
  EXPECT_FALSE(fs.help_requested());
}

TEST(FlagSetTest, UnparsedFlagsKeepDefaults) {
  int64_t n = 4;
  std::string name = "default";
  FlagSet fs;
  fs.Register("n", &n, "");
  fs.Register("name", &name, "");
  ASSERT_TRUE(ParseFlagSet(&fs, {"--n", "8"}).ok());
  EXPECT_EQ(n, 8);
  EXPECT_EQ(name, "default");
}

TEST(FlagSetTest, BoolLookaheadOnlyConsumesBoolLiterals) {
  bool a = true;
  bool b = false;
  int64_t n = 0;
  FlagSet fs;
  fs.Register("a", &a, "");
  fs.Register("b", &b, "");
  fs.Register("n", &n, "");
  // `--a false` consumes the literal; bare `--b` before another flag does
  // not swallow `--n`.
  ASSERT_TRUE(ParseFlagSet(&fs, {"--a", "false", "--b", "--n", "3"}).ok());
  EXPECT_FALSE(a);
  EXPECT_TRUE(b);
  EXPECT_EQ(n, 3);
}

TEST(FlagSetTest, RejectsUnknownMalformedAndMissing) {
  int64_t n = 0;
  FlagSet fs;
  fs.Register("n", &n, "");
  EXPECT_FALSE(ParseFlagSet(&fs, {"--typo", "1"}).ok());
  EXPECT_FALSE(ParseFlagSet(&fs, {"--n", "12x"}).ok());
  EXPECT_FALSE(ParseFlagSet(&fs, {"--n"}).ok());
  EXPECT_FALSE(ParseFlagSet(&fs, {"positional"}).ok());
}

TEST(FlagSetTest, HelpGeneratedFromRegistrations) {
  int64_t threads = 4;
  bool cache = true;
  FlagSet fs("A test binary.");
  fs.Register("num_threads", &threads, "worker thread count");
  fs.Register("cache", &cache, "enable the cache");
  ASSERT_TRUE(ParseFlagSet(&fs, {"--help"}).ok());
  EXPECT_TRUE(fs.help_requested());
  const std::string usage = fs.Usage("prog");
  EXPECT_NE(usage.find("A test binary."), std::string::npos);
  EXPECT_NE(usage.find("--num_threads (int; default 4)"), std::string::npos);
  EXPECT_NE(usage.find("worker thread count"), std::string::npos);
  EXPECT_NE(usage.find("--cache (bool; default true)"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(CsvTest, RoundTrip) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "x"}, {"2", "y"}};
  const std::string path = "/tmp/rtgcn_csv_test.csv";
  WriteCsv(path, table).Abort();
  CsvTable back = ReadCsv(path).ValueOrDie();
  EXPECT_EQ(back.header, table.header);
  EXPECT_EQ(back.rows, table.rows);
  EXPECT_EQ(back.ColumnIndex("b"), 1);
  EXPECT_EQ(back.ColumnIndex("z"), -1);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIoError) {
  EXPECT_FALSE(ReadCsv("/nonexistent/nope.csv").ok());
}

TEST(CsvTest, QuotedFieldsRoundTrip) {
  CsvTable table;
  table.header = {"name", "note"};
  table.rows = {{"a,b", "he said \"hi\""},
                {"line\nbreak", "plain"},
                {"", "trailing,comma,"}};
  const std::string path = "/tmp/rtgcn_csv_quoted.csv";
  WriteCsv(path, table).Abort();
  CsvTable back = ReadCsv(path).ValueOrDie();
  EXPECT_EQ(back.header, table.header);
  EXPECT_EQ(back.rows, table.rows);
  std::remove(path.c_str());
}

TEST(CsvTest, ParsesRfc4180Input) {
  const std::string path = "/tmp/rtgcn_csv_rfc4180.csv";
  {
    std::ofstream out(path, std::ios::binary);
    // CRLF line endings, quoted commas/doubled quotes/embedded newline.
    out << "sym,\"full name\"\r\n"
        << "AAPL,\"Apple, Inc.\"\r\n"
        << "Q,\"say \"\"hi\"\"\"\r\n"
        << "NL,\"two\nlines\"\r\n";
  }
  CsvTable table = ReadCsv(path).ValueOrDie();
  EXPECT_EQ(table.header, (std::vector<std::string>{"sym", "full name"}));
  ASSERT_EQ(table.rows.size(), 3u);
  EXPECT_EQ(table.rows[0],
            (std::vector<std::string>{"AAPL", "Apple, Inc."}));
  EXPECT_EQ(table.rows[1], (std::vector<std::string>{"Q", "say \"hi\""}));
  EXPECT_EQ(table.rows[2], (std::vector<std::string>{"NL", "two\nlines"}));
  std::remove(path.c_str());
}

TEST(CsvTest, RejectsMalformedQuoting) {
  const std::string path = "/tmp/rtgcn_csv_bad.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "a,b\n1,\"unterminated\n";
  }
  EXPECT_FALSE(ReadCsv(path).ok());
  {
    std::ofstream out(path, std::ios::binary);
    out << "a,b\n1,str\"ay\n";
  }
  EXPECT_FALSE(ReadCsv(path).ok());
  std::remove(path.c_str());
}

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntUnbiasedSmallRange) {
  Rng rng(2);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) ++counts[rng.UniformInt(3)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(4);
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.Categorical({1.0, 3.0})];
  EXPECT_NEAR(counts[1] / 10000.0, 0.75, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkIndependentButDeterministic) {
  Rng a(6), b(6);
  Rng fa = a.Fork(), fb = b.Fork();
  EXPECT_EQ(fa.NextU64(), fb.NextU64());
}

}  // namespace
}  // namespace rtgcn
