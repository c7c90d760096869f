// Sequences and the 2-bit packed layout of §5.1.3.
//
// The paper stores sequence data in CUDA constant memory, 2 bits per base,
// so that a 64-bit read feeds a whole 32-thread warp. PackedAlignment
// reproduces that layout on the CPU: per-sequence 2-bit words with the
// unknown sites tracked in a side mask.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "seq/nucleotide.h"

namespace mpcgs {

/// A named nucleotide sequence (unpacked, one code per byte).
class Sequence {
  public:
    Sequence() = default;
    Sequence(std::string name, std::vector<NucCode> codes)
        : name_(std::move(name)), codes_(std::move(codes)) {}

    /// Parse from characters; throws ParseError on invalid characters.
    static Sequence fromString(std::string name, const std::string& chars);

    const std::string& name() const { return name_; }

    std::size_t length() const { return codes_.size(); }
    NucCode at(std::size_t i) const { return codes_[i]; }
    void set(std::size_t i, NucCode c) { codes_[i] = c; }
    const std::vector<NucCode>& codes() const { return codes_; }

    /// Render as characters.
    std::string toString() const;

    /// Number of positions that differ from `other` (both known); the raw
    /// distance measure of §5.1.3's UPGMA initialization.
    std::size_t hammingDistance(const Sequence& other) const;

    bool operator==(const Sequence&) const = default;

  private:
    std::string name_;
    std::vector<NucCode> codes_;
};

/// 2-bit packed storage for a whole alignment (sequence-major). 32 bases
/// per 64-bit word, mirroring the paper's constant-memory packing.
class PackedAlignment {
  public:
    PackedAlignment() = default;
    PackedAlignment(const std::vector<Sequence>& seqs);

    std::size_t sequenceCount() const { return nSeq_; }
    std::size_t length() const { return length_; }

    /// Code of base `site` of sequence `seq` (0..3, or kNucUnknown).
    NucCode at(std::size_t seq, std::size_t site) const;

    /// The 64-bit word holding sites [32*w, 32*w+32) of sequence `seq` —
    /// the unit the paper broadcasts to a warp.
    std::uint64_t word(std::size_t seq, std::size_t w) const;

    std::size_t wordsPerSequence() const { return wordsPerSeq_; }

  private:
    std::size_t nSeq_ = 0;
    std::size_t length_ = 0;
    std::size_t wordsPerSeq_ = 0;
    std::vector<std::uint64_t> words_;
    std::vector<std::uint64_t> unknownMask_;  // 1 bit per site
    std::size_t maskWordsPerSeq_ = 0;
};

}  // namespace mpcgs
