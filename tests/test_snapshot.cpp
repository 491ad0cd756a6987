/**
 * @file
 * Coverage of the typed binary codec behind the results journal and
 * the campaign wire: tags, sections and malformed-stream rejection.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {
namespace {

// ---- codec round-trips -------------------------------------------------

TEST(SnapshotCodec, RoundTripsEveryScalarType)
{
    SnapshotWriter w;
    w.section("test");
    w.u8(0xab);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.boolean(true);
    w.boolean(false);
    w.f64(3.141592653589793);
    w.str("hello");
    w.unit(Cycle{12345});
    w.vecU64({1, 2, 3});

    SnapshotReader r(w.bytes());
    r.section("test");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.f64(), 3.141592653589793);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.unit<Cycle>(), Cycle{12345});
    EXPECT_EQ(r.vecU64(), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotCodec, DoublesRoundTripByBitPattern)
{
    // -0.0 and NaN payloads must survive exactly; equality compares
    // bits, not values.
    const double neg_zero = -0.0;
    SnapshotWriter w;
    w.f64(neg_zero);
    SnapshotReader r(w.bytes());
    const double back = r.f64();
    EXPECT_EQ(std::memcmp(&neg_zero, &back, sizeof back), 0);
}

TEST(SnapshotCodec, TagMismatchThrows)
{
    SnapshotWriter w;
    w.u64(7);
    SnapshotReader r(w.bytes());
    EXPECT_THROW(r.i64(), SimError); // wrong tag
}

TEST(SnapshotCodec, SectionNameMismatchThrows)
{
    SnapshotWriter w;
    w.section("gpu");
    SnapshotReader r(w.bytes());
    EXPECT_THROW(r.section("sm"), SimError);
}

TEST(SnapshotCodec, TruncatedStreamThrows)
{
    SnapshotWriter w;
    w.u64(1);
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes.resize(bytes.size() - 3);
    SnapshotReader r(bytes);
    EXPECT_THROW(r.u64(), SimError);
}

} // namespace
} // namespace ckesim
