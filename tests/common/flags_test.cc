#include "futurerand/common/flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace futurerand {
namespace {

// Helper to run Parse over a literal argv.
Status ParseArgs(FlagParser* parser, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return parser->Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagParserTest, ParsesEqualsForm) {
  int64_t n = 5;
  double eps = 1.0;
  std::string name = "x";
  FlagParser parser;
  parser.AddInt64("n", &n, "users");
  parser.AddDouble("eps", &eps, "budget");
  parser.AddString("name", &name, "label");
  ASSERT_TRUE(
      ParseArgs(&parser, {"--n=42", "--eps=0.25", "--name=hello"}).ok());
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(eps, 0.25);
  EXPECT_EQ(name, "hello");
}

TEST(FlagParserTest, ParsesSpaceForm) {
  int64_t n = 0;
  FlagParser parser;
  parser.AddInt64("n", &n, "users");
  ASSERT_TRUE(ParseArgs(&parser, {"--n", "17"}).ok());
  EXPECT_EQ(n, 17);
}

TEST(FlagParserTest, DefaultsSurviveWhenUnset) {
  int64_t n = 99;
  FlagParser parser;
  parser.AddInt64("n", &n, "users");
  ASSERT_TRUE(ParseArgs(&parser, {}).ok());
  EXPECT_EQ(n, 99);
}

TEST(FlagParserTest, BoolForms) {
  bool verbose = false;
  bool feature = true;
  FlagParser parser;
  parser.AddBool("verbose", &verbose, "chatty");
  parser.AddBool("feature", &feature, "toggle");
  ASSERT_TRUE(ParseArgs(&parser, {"--verbose", "--feature=false"}).ok());
  EXPECT_TRUE(verbose);
  EXPECT_FALSE(feature);
}

TEST(FlagParserTest, BoolAcceptsNumericLiterals) {
  bool flag = false;
  FlagParser parser;
  parser.AddBool("flag", &flag, "toggle");
  ASSERT_TRUE(ParseArgs(&parser, {"--flag=1"}).ok());
  EXPECT_TRUE(flag);
  ASSERT_TRUE(ParseArgs(&parser, {"--flag=0"}).ok());
  EXPECT_FALSE(flag);
}

TEST(FlagParserTest, NegativeNumbers) {
  int64_t delta = 0;
  double offset = 0.0;
  FlagParser parser;
  parser.AddInt64("delta", &delta, "signed");
  parser.AddDouble("offset", &offset, "signed");
  ASSERT_TRUE(ParseArgs(&parser, {"--delta=-7", "--offset=-2.5"}).ok());
  EXPECT_EQ(delta, -7);
  EXPECT_DOUBLE_EQ(offset, -2.5);
}

TEST(FlagParserTest, UnknownFlagIsError) {
  FlagParser parser;
  const Status status = ParseArgs(&parser, {"--typo=1"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("typo"), std::string::npos);
}

TEST(FlagParserTest, MalformedValuesAreErrors) {
  int64_t n = 0;
  double eps = 0.0;
  bool flag = false;
  FlagParser parser;
  parser.AddInt64("n", &n, "users");
  parser.AddDouble("eps", &eps, "budget");
  parser.AddBool("flag", &flag, "toggle");
  EXPECT_FALSE(ParseArgs(&parser, {"--n=abc"}).ok());
  EXPECT_FALSE(ParseArgs(&parser, {"--n=12x"}).ok());
  EXPECT_FALSE(ParseArgs(&parser, {"--eps=1.2.3"}).ok());
  EXPECT_FALSE(ParseArgs(&parser, {"--flag=maybe"}).ok());
}

TEST(FlagParserTest, MissingValueIsError) {
  int64_t n = 0;
  FlagParser parser;
  parser.AddInt64("n", &n, "users");
  EXPECT_FALSE(ParseArgs(&parser, {"--n"}).ok());
}

TEST(FlagParserTest, StrayArgumentsAreErrors) {
  int64_t n = 0;
  bool flag = true;
  FlagParser parser;
  parser.AddInt64("n", &n, "users");
  parser.AddBool("flag", &flag, "toggle");

  const Status file = ParseArgs(&parser, {"input.csv"});
  EXPECT_EQ(file.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(file.message().find("input.csv"), std::string::npos);

  // A bare bool flag takes no separate value: `false` is a stray argument,
  // not the flag's value.
  const Status bool_value = ParseArgs(&parser, {"--flag", "false"});
  EXPECT_EQ(bool_value.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bool_value.message().find("false"), std::string::npos);

  // Single-dash spellings are stray too.
  EXPECT_EQ(ParseArgs(&parser, {"-n=7"}).code(),
            StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, UsageListsFlagsWithDefaults) {
  int64_t n = 12;
  FlagParser parser;
  parser.AddInt64("n", &n, "number of users");
  const std::string usage = parser.Usage("frsim");
  EXPECT_NE(usage.find("frsim"), std::string::npos);
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("12"), std::string::npos);
  EXPECT_NE(usage.find("number of users"), std::string::npos);
}

TEST(FlagParserTest, DuplicateRegistrationDies) {
  int64_t a = 0;
  int64_t b = 0;
  FlagParser parser;
  parser.AddInt64("n", &a, "first");
  EXPECT_DEATH({ parser.AddInt64("n", &b, "second"); }, "duplicate");
}

}  // namespace
}  // namespace futurerand
