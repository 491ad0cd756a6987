/**
 * @file
 * Versioned, deterministic binary codec for the results journal
 * (metrics/journal) and the campaign wire (campaign/wire).
 *
 * Two properties ordinary serialization does not guarantee: (1) every
 * byte written is a pure function of the encoded values, never of
 * host iteration order or wall time, so a journal replay reproduces
 * the uninterrupted run's tables byte for byte; and (2) a corrupted
 * or version-skewed record fails loudly at decode time, never as a
 * silently wrong result.
 *
 * The encoding is a flat tagged stream: every value is prefixed with a
 * one-byte type tag, and payloads bracket their fields in named
 * sections. A reader that drifts out of alignment (a field added on
 * one side only, a truncated record) hits a tag or section-name
 * mismatch within a few bytes and throws a SimError of kind
 * "Snapshot" with the offset. Integrity of stored bytes is the
 * container's job (the journal CRCs every record, the wire every
 * frame).
 *
 * Format rules (see DESIGN.md section 11):
 *  - kSnapshotFormatVersion (sim/types.hpp) must be bumped on any
 *    change to what a journal record holds or how it is encoded;
 *    there is no migration;
 *  - unordered containers are serialized in sorted key order;
 *  - doubles are serialized by bit pattern, never formatted.
 */

#ifndef CKESIM_SIM_SNAPSHOT_HPP
#define CKESIM_SIM_SNAPSHOT_HPP

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace ckesim {

/** Wire type tags. One byte before every encoded value. */
enum class SnapTag : std::uint8_t {
    U8 = 1,
    U32 = 2, ///< retired (no writer); the number stays taken
    U64 = 3,
    I64 = 4,
    Bool = 5,
    F64 = 6,
    Str = 7,
    Section = 8,
};

/**
 * Append-only typed encoder. All append operations are deterministic
 * functions of their arguments; the resulting byte vector is the
 * record payload.
 */
class SnapshotWriter
{
  public:
    SnapshotWriter() = default;

    void u8(std::uint8_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    void boolean(bool v);
    void f64(double v);
    void str(const std::string &v);

    /** Named section marker; the reader must ask for the same name. */
    void section(const char *name);

    /** Strong unit: serialized as its unsigned raw value. */
    template <class Tag, class Rep>
    void
    unit(StrongUnit<Tag, Rep> v)
    {
        u64(static_cast<std::uint64_t>(v.get()));
    }

    /** Length-prefixed vector of u64 (series bins). */
    void vecU64(const std::vector<std::uint64_t> &v);

    const std::vector<std::uint8_t> &bytes() const { return buf_; }

    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    void tag(SnapTag t);
    void raw(const void *p, std::size_t n);

    std::vector<std::uint8_t> buf_;
};

/**
 * Strict decoder for SnapshotWriter streams. Every read validates the
 * type tag (and, for sections, the name) before consuming the value;
 * any mismatch or truncation throws SimError kind "Snapshot".
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const std::vector<std::uint8_t> &bytes)
        : bytes_(&bytes)
    {
    }

    std::uint8_t u8();
    std::uint64_t u64();
    std::int64_t i64();
    bool boolean();
    double f64();
    std::string str();

    /** Consume a section marker; @p name must match what was written. */
    void section(const char *name);

    template <class UnitT>
    UnitT
    unit()
    {
        return UnitT(static_cast<typename UnitT::rep_type>(u64()));
    }

    std::vector<std::uint64_t> vecU64();

    /** Entire payload consumed? Decoders assert this at the end. */
    bool atEnd() const { return pos_ == bytes_->size(); }

  private:
    void expect(SnapTag t);
    const std::uint8_t *take(std::size_t n);
    [[noreturn]] void fail(const std::string &detail) const;

    const std::vector<std::uint8_t> *bytes_;
    std::size_t pos_ = 0;
};

} // namespace ckesim

#endif // CKESIM_SIM_SNAPSHOT_HPP
