#include "util/hash.h"

#include <gtest/gtest.h>

#include <string>

namespace spineless::util {
namespace {

TEST(Fnv1a, MatchesPublishedVectors) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, SeedChainsAcrossPieces) {
  EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
  // Bytes above 0x7f hash as unsigned, like the snapshot checksum.
  const std::string high = {'\xff', '\x80'};
  EXPECT_EQ(fnv1a(high),
            ((kFnv1aOffsetBasis ^ 0xffULL) * 0x100000001b3ULL ^ 0x80ULL) *
                0x100000001b3ULL);
}

}  // namespace
}  // namespace spineless::util
