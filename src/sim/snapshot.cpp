#include "sim/snapshot.hpp"

#include <sstream>

#include "sim/check.hpp"

namespace ckesim {

// ---- SnapshotWriter -----------------------------------------------

void
SnapshotWriter::raw(const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    buf_.insert(buf_.end(), b, b + n);
}

void
SnapshotWriter::tag(SnapTag t)
{
    const auto v = static_cast<std::uint8_t>(t);
    raw(&v, 1);
}

void
SnapshotWriter::u8(std::uint8_t v)
{
    tag(SnapTag::U8);
    raw(&v, 1);
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    tag(SnapTag::U64);
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    raw(b, 8);
}

void
SnapshotWriter::i64(std::int64_t v)
{
    tag(SnapTag::I64);
    const auto u = static_cast<std::uint64_t>(v);
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(u >> (8 * i));
    raw(b, 8);
}

void
SnapshotWriter::boolean(bool v)
{
    tag(SnapTag::Bool);
    const std::uint8_t b = v ? 1 : 0;
    raw(&b, 1);
}

void
SnapshotWriter::f64(double v)
{
    // Bit pattern, never text: decoding must be exact for every value
    // including -0.0, subnormals, and NaN payloads.
    tag(SnapTag::F64);
    std::uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(u >> (8 * i));
    raw(b, 8);
}

void
SnapshotWriter::str(const std::string &v)
{
    tag(SnapTag::Str);
    std::uint8_t b[4];
    const auto n = static_cast<std::uint32_t>(v.size());
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<std::uint8_t>(n >> (8 * i));
    raw(b, 4);
    raw(v.data(), v.size());
}

void
SnapshotWriter::section(const char *name)
{
    tag(SnapTag::Section);
    const std::string s(name);
    std::uint8_t b[4];
    const auto n = static_cast<std::uint32_t>(s.size());
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<std::uint8_t>(n >> (8 * i));
    raw(b, 4);
    raw(s.data(), s.size());
}

void
SnapshotWriter::vecU64(const std::vector<std::uint64_t> &v)
{
    u64(v.size());
    for (std::uint64_t x : v)
        u64(x);
}

// ---- SnapshotReader -----------------------------------------------

void
SnapshotReader::fail(const std::string &detail) const
{
    SimCtx ctx;
    ctx.module = "snapshot";
    std::ostringstream os;
    os << detail << " at payload offset " << pos_ << " of "
       << bytes_->size();
    raiseSimError("Snapshot", ctx, os.str());
}

const std::uint8_t *
SnapshotReader::take(std::size_t n)
{
    if (pos_ + n > bytes_->size())
        fail("truncated snapshot payload");
    const std::uint8_t *p = bytes_->data() + pos_;
    pos_ += n;
    return p;
}

void
SnapshotReader::expect(SnapTag t)
{
    const std::uint8_t got = *take(1);
    if (got != static_cast<std::uint8_t>(t)) {
        std::ostringstream os;
        os << "type tag mismatch: expected " << int(static_cast<std::uint8_t>(t))
           << ", found " << int(got);
        fail(os.str());
    }
}

std::uint8_t
SnapshotReader::u8()
{
    expect(SnapTag::U8);
    return *take(1);
}

std::uint64_t
SnapshotReader::u64()
{
    expect(SnapTag::U64);
    const std::uint8_t *b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
}

std::int64_t
SnapshotReader::i64()
{
    expect(SnapTag::I64);
    const std::uint8_t *b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return static_cast<std::int64_t>(v);
}

bool
SnapshotReader::boolean()
{
    expect(SnapTag::Bool);
    const std::uint8_t v = *take(1);
    if (v > 1)
        fail("bool value out of range");
    return v != 0;
}

double
SnapshotReader::f64()
{
    expect(SnapTag::F64);
    const std::uint8_t *b = take(8);
    std::uint64_t u = 0;
    for (int i = 0; i < 8; ++i)
        u |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    double v = 0.0;
    std::memcpy(&v, &u, sizeof(v));
    return v;
}

std::string
SnapshotReader::str()
{
    expect(SnapTag::Str);
    const std::uint8_t *lb = take(4);
    std::uint32_t n = 0;
    for (int i = 0; i < 4; ++i)
        n |= static_cast<std::uint32_t>(lb[i]) << (8 * i);
    const std::uint8_t *b = take(n);
    return std::string(reinterpret_cast<const char *>(b), n);
}

void
SnapshotReader::section(const char *name)
{
    expect(SnapTag::Section);
    const std::uint8_t *lb = take(4);
    std::uint32_t n = 0;
    for (int i = 0; i < 4; ++i)
        n |= static_cast<std::uint32_t>(lb[i]) << (8 * i);
    const std::uint8_t *b = take(n);
    const std::string got(reinterpret_cast<const char *>(b), n);
    if (got != name)
        fail("section mismatch: expected '" + std::string(name) +
             "', found '" + got + "'");
}

std::vector<std::uint64_t>
SnapshotReader::vecU64()
{
    const std::uint64_t n = u64();
    if (n > bytes_->size()) // each element needs >= 1 byte
        fail("vector length implausibly large");
    std::vector<std::uint64_t> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(u64());
    return v;
}

} // namespace ckesim
