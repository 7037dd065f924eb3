// util/json tests: the reader (scalars, strings, nesting, malformed input
// with byte positions, the nesting cap, exact integers) and the writer's
// round trip through it.
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/json.h"

namespace spineless {
namespace {

TEST(Jsonin, ParsesScalarsStringsAndNesting) {
  const JsonValue v = parse_json(
      R"({"a":1,"b":-2.5e2,"c":"x\"\nA","d":[true,false,null],"e":{"k":3}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(v.find("b")->as_number(), -250.0);
  EXPECT_EQ(v.find("c")->as_string(), "x\"\nA");
  ASSERT_TRUE(v.find("d")->is_array());
  EXPECT_EQ(v.find("d")->as_array().size(), 3u);
  EXPECT_TRUE(v.find("d")->as_array()[0].as_bool());
  EXPECT_EQ(v.find("e")->find("k")->as_int(), 3);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Jsonin, RejectsMalformedInputWithBytePosition) {
  const auto expect_error = [](const std::string& doc) {
    try {
      parse_json(doc);
      FAIL() << "expected a parse error for: " << doc;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("json:"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
    }
  };
  expect_error("");
  expect_error("{");
  expect_error("{\"a\":}");
  expect_error("{\"a\":1,}");
  expect_error("[1 2]");
  expect_error("{\"a\":01}");
  expect_error("\"unterminated");
  expect_error("{\"a\":1} trailing");
  // Nesting is capped at 64: deeper input is a clean error, not a stack
  // overflow (100k brackets used to segfault the recursive parser).
  expect_error(std::string(100'000, '['));
  expect_error(std::string(65, '[') + std::string(65, ']'));
  EXPECT_NO_THROW(parse_json(std::string(64, '[') + std::string(64, ']')));
}

TEST(Jsonin, IntegersReadExactlyAndInRange) {
  // Integer literals convert from their text, not through a double.
  EXPECT_EQ(parse_json("9007199254740993").as_int(), 9007199254740993LL);
  EXPECT_EQ(parse_json("9007199254740993").as_uint(), 9007199254740993ULL);
  EXPECT_EQ(parse_json("18446744073709551615").as_uint(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_json("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_json("-7").as_int(), -7);
  // Other integral numbers still go through the double.
  EXPECT_EQ(parse_json("1e3").as_int(), 1000);
  EXPECT_EQ(parse_json("1e3").as_uint(), 1000u);
  EXPECT_EQ(parse_json("1.0").as_uint(), 1u);
  EXPECT_EQ(parse_json("-2.0E0").as_int(), -2);
  // Out of range or not integral: a clean error.
  EXPECT_THROW(parse_json("-1").as_uint(), Error);
  EXPECT_THROW(parse_json("-1e0").as_uint(), Error);
  EXPECT_THROW(parse_json("18446744073709551616").as_uint(), Error);
  EXPECT_THROW(parse_json("1.8446744073709552e19").as_uint(), Error);
  EXPECT_THROW(parse_json("9223372036854775808").as_int(), Error);
  EXPECT_THROW(parse_json("1.5").as_int(), Error);
  EXPECT_THROW(parse_json("1e999").as_uint(), Error);
  EXPECT_THROW(parse_json("\"1\"").as_int(), Error);
}

TEST(Jsonin, ReadsBackWhatJsonWriterWrites) {
  const std::string nasty = "tab\tnl\nquote\"back\\slash=eq\x01";
  JsonWriter w;
  w.begin_object();
  w.kv(nasty, nasty);
  w.kv("u", std::numeric_limits<std::uint64_t>::max());
  w.kv("i", std::numeric_limits<std::int64_t>::min());
  w.kv("d", 0.1);
  w.kv("b", true);
  w.key("a");
  w.begin_array();
  w.value(-2.5);
  w.end_array();
  w.end_object();
  const JsonValue v = parse_json(w.str());
  EXPECT_EQ(v.find(nasty)->as_string(), nasty);
  EXPECT_EQ(v.find("u")->as_uint(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(v.find("i")->as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v.find("d")->as_number(), json_rounded(0.1));
  EXPECT_TRUE(v.find("b")->as_bool());
  EXPECT_EQ(v.find("a")->as_array()[0].as_number(), -2.5);
  EXPECT_EQ(json_rounded(1.0 / 3), 0.333333333);
}

}  // namespace
}  // namespace spineless
