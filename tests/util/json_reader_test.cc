#include "util/json_reader.h"

#include <string>

#include <gtest/gtest.h>

namespace wtpgsched {
namespace {

// The parser's error for `text`; empty when it parses.
std::string ParseError(const std::string& text) {
  StatusOr<JsonValue> parsed = ParseJson(text);
  if (parsed.ok()) return "";
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  return parsed.status().message();
}

// `depth` arrays nested inside one another: "[[[]]]" for 3.
std::string NestedArrays(int depth) {
  return std::string(static_cast<size_t>(depth), '[') +
         std::string(static_cast<size_t>(depth), ']');
}

// `depth` objects nested inside one another: {"k":{"k":{}}} for 3.
std::string NestedObjects(int depth) {
  std::string text;
  for (int i = 1; i < depth; ++i) text += "{\"k\":";
  text += "{}";
  return text + std::string(static_cast<size_t>(depth - 1), '}');
}

TEST(JsonReaderTest, ParsesNestedDocument) {
  StatusOr<JsonValue> parsed =
      ParseJson(R"( {"a":[1,-2.5e1,true,null],"b":{"c":"xé\n"}} )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* a = parsed->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->elements().size(), 4u);
  EXPECT_EQ(a->elements()[1].number_value(), -25.0);
  EXPECT_TRUE(a->elements()[2].bool_value());
  EXPECT_EQ(a->elements()[3].type(), JsonValue::Type::kNull);
  const JsonValue* c = parsed->Find("b")->Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->string_value(), "x\xC3\xA9\n");
}

TEST(JsonReaderTest, NestingUpToTheBoundParses) {
  EXPECT_EQ(ParseError(NestedArrays(kMaxJsonDepth)), "");
  EXPECT_EQ(ParseError(NestedObjects(kMaxJsonDepth)), "");
}

TEST(JsonReaderTest, NestingPastTheBoundIsAnError) {
  EXPECT_NE(ParseError(NestedArrays(kMaxJsonDepth + 1)), "");
  EXPECT_NE(ParseError(NestedObjects(kMaxJsonDepth + 1)), "");
}

// Deep enough to overflow the stack of an unbounded recursive descent.
TEST(JsonReaderTest, HostileNestingFailsWithoutRecursingToTheEnd) {
  EXPECT_NE(ParseError(std::string(100'000, '[')), "");
  EXPECT_NE(ParseError(NestedArrays(100'000)), "");
  EXPECT_NE(ParseError(NestedObjects(100'000)), "");
  std::string mixed;
  for (int i = 0; i < 50'000; ++i) mixed += "[{\"k\":";
  EXPECT_NE(ParseError(mixed), "");
}

TEST(JsonReaderTest, TruncatedStringsAreErrors) {
  EXPECT_NE(ParseError(R"("abc)"), "");
  EXPECT_NE(ParseError(R"({"key)"), "");
  EXPECT_NE(ParseError(R"({"key":"value)"), "");
  EXPECT_NE(ParseError(R"(["a\)"), "");
  EXPECT_NE(ParseError("\""), "");
}

TEST(JsonReaderTest, TruncatedUnicodeEscapesAreErrors) {
  EXPECT_NE(ParseError(R"("\u)"), "");
  EXPECT_NE(ParseError(R"("\u12)"), "");
  EXPECT_NE(ParseError(R"("\u12")"), "");
  EXPECT_NE(ParseError(R"("\u12zz")"), "");
  EXPECT_NE(ParseError(R"(["\u00e)"), "");
}

TEST(JsonReaderTest, TrailingGarbageIsAnError) {
  EXPECT_NE(ParseError("{} x"), "");
  EXPECT_NE(ParseError("[1]]"), "");
  EXPECT_NE(ParseError("1 2"), "");
  EXPECT_NE(ParseError("truex"), "");
  EXPECT_NE(ParseError(R"({"a":1}})"), "");
  EXPECT_EQ(ParseError("{} \n\t"), "");
}

TEST(JsonReaderTest, EmptyAndTruncatedDocumentsAreErrors) {
  EXPECT_NE(ParseError(""), "");
  EXPECT_NE(ParseError("   "), "");
  EXPECT_NE(ParseError("["), "");
  EXPECT_NE(ParseError("[1,"), "");
  EXPECT_NE(ParseError(R"({"a":)"), "");
  EXPECT_NE(ParseError(R"({"a" 1})"), "");
  EXPECT_NE(ParseError("-"), "");
}

}  // namespace
}  // namespace wtpgsched
