// Block-compressed posting lists with skip metadata — the postings
// representation behind the MaxScore evaluator (block_max_index.h).
//
// Layout (all CSR, frozen by the builder):
//  * each term's postings are cut into fixed 128-entry blocks; every block
//    encodes its doc-id gaps (minus one) and tf values (minus one)
//    independently through a pluggable integer codec (block_codecs.h),
//    so a cursor decodes only the blocks a query actually visits;
//  * per block the store keeps the last doc id (the skip pointer NextGEQ
//    scans) and the byte offsets of its two blobs;
//  * per term it keeps the posting count.
//
// The store holds no scores: the per-term upper bounds MaxScore prunes
// with live in BlockMaxIndex, which derives them from these postings on
// build and on load.
#ifndef CKR_INDEX_BLOCK_POSTINGS_H_
#define CKR_INDEX_BLOCK_POSTINGS_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "index/block_codecs.h"

namespace ckr {

class BinaryReader;
class BinaryWriter;

/// Docs per block. 128 keeps a decoded block (docs + tfs) within two
/// cache lines per column and matches the granularity PISA-style engines
/// use for block-max metadata.
inline constexpr uint32_t kPostingBlockSize = 128;

/// Immutable block-compressed postings for a whole term dictionary.
class BlockPostingsStore {
 public:
  /// Assembles a store term by term (defined after the class — it holds
  /// the store it grows by value). Terms must be added in dense id order,
  /// docs strictly ascending within a term.
  class Builder;

  BlockPostingsStore() = default;

  BlockCodec codec() const { return codec_; }
  size_t NumTerms() const {
    return term_block_offset_.empty() ? 0 : term_block_offset_.size() - 1;
  }
  size_t NumBlocks() const { return block_last_doc_.size(); }
  uint64_t NumPostings() const { return num_postings_; }

  uint32_t TermPostings(uint32_t tid) const { return term_postings_[tid]; }
  uint32_t TermBlocks(uint32_t tid) const {
    return term_block_offset_[tid + 1] - term_block_offset_[tid];
  }

  /// Bytes of the two encoded pools — the number the >= 2x-vs-CSR
  /// compression acceptance compares.
  size_t CompressedPostingBytes() const {
    return doc_pool_.size() + tf_pool_.size();
  }
  /// Pools plus every metadata column.
  size_t MemoryBytes() const;

  /// Serializes every column (pools, offsets, skip pointers) in index
  /// order.
  void AppendTo(BinaryWriter* writer) const;

  /// Parses an AppendTo payload. Validates counts against the remaining
  /// bytes before any allocation, CSR monotonicity, and blob offsets;
  /// the caller owning the blob format must then decode every block
  /// through ValidateBlock (codec well-formedness, doc ordering).
  [[nodiscard]] static StatusOr<BlockPostingsStore> ReadFrom(
      BinaryReader* reader, BlockCodec codec);

  /// Decodes global block `block` of term `tid` into `docs` / `tfs` (room
  /// for kPostingBlockSize each) and rejects malformed codec payloads,
  /// non-ascending or out-of-range doc ids, zero tfs, and a skip pointer
  /// that disagrees with the block's contents. Untrusted loads run it on
  /// every block.
  [[nodiscard]] Status ValidateBlock(uint32_t tid, uint32_t block,
                                     uint64_t num_docs, uint32_t* docs,
                                     uint32_t* tfs) const;

  // ---- Cursor support (read-only views over the frozen columns) ----
  uint32_t TermFirstBlock(uint32_t tid) const {
    return term_block_offset_[tid];
  }
  uint32_t BlockLastDoc(uint32_t block) const {
    return block_last_doc_[block];
  }
  /// Docs held by global block `block` of term `tid` (all blocks are full
  /// except a term's last).
  uint32_t BlockDocCount(uint32_t tid, uint32_t block) const;
  /// Decodes one block's doc ids and tfs into `docs[0..count)` /
  /// `tfs[0..count)`; count = BlockDocCount. Encoded gaps are rebased on
  /// the previous block's last doc (0 for a term's first block).
  [[nodiscard]] Status DecodeBlockInto(uint32_t tid, uint32_t block,
                                       uint32_t* docs, uint32_t* tfs) const;

 private:
  friend class Builder;

  [[nodiscard]] Status LoadColumns(BinaryReader* reader);
  [[nodiscard]] Status ValidateAfterLoad() const;

  BlockCodec codec_ = BlockCodec::kVarintGB;
  uint64_t num_postings_ = 0;
  std::vector<uint32_t> term_block_offset_;  ///< terms+1, global block CSR.
  std::vector<uint32_t> term_postings_;      ///< Postings per term.
  std::vector<uint32_t> block_last_doc_;     ///< Skip pointer per block.
  std::vector<uint64_t> block_doc_offset_;   ///< blocks+1 into doc_pool_.
  std::vector<uint64_t> block_tf_offset_;    ///< blocks+1 into tf_pool_.
  std::vector<uint8_t> doc_pool_;            ///< Encoded doc-gap blobs.
  std::vector<uint8_t> tf_pool_;             ///< Encoded tf-1 blobs.
};

class BlockPostingsStore::Builder {
 public:
  explicit Builder(BlockCodec codec) : codec_(codec) {}

  /// Appends term `tid` (== number of AddTerm calls so far).
  void AddTerm(Span<const uint32_t> docs, Span<const uint32_t> tfs);

  BlockPostingsStore Finish();

 private:
  BlockCodec codec_;
  BlockPostingsStore store_;
  std::vector<uint32_t> scratch_;
  bool finished_ = false;
};

/// Skip-capable decoding iterator over one term's block postings. The
/// cursor is always positioned on a real posting (or at the end); blocks
/// are decoded lazily, so NextGEQ jumps straight to the target's block via
/// the last-doc skip pointers and never touches the blocks in between.
class PostingCursor {
 public:
  /// doc() value once the list is exhausted; compares greater than every
  /// real doc id.
  static constexpr uint32_t kEndDoc = 0xffffffffu;

  PostingCursor() = default;
  PostingCursor(const BlockPostingsStore* store, uint32_t tid);

  uint32_t doc() const { return cur_doc_; }
  /// Term frequency at the current posting (undefined at end).
  uint32_t tf() const {
    CKR_DCHECK(!AtEnd());
    return tfs_[pos_];
  }
  bool AtEnd() const { return cur_doc_ == kEndDoc; }

  uint32_t postings() const { return postings_; }

  /// Advances one posting.
  void Next();
  /// Advances to the first posting with doc >= target (no-op when already
  /// there). Skips and never decodes blocks whose last doc < target.
  void NextGEQ(uint32_t target);

 private:
  void DecodeBlock(uint32_t rel_block);

  const BlockPostingsStore* store_ = nullptr;
  uint32_t tid_ = 0;
  uint32_t first_block_ = 0;
  uint32_t num_blocks_ = 0;
  uint32_t postings_ = 0;
  uint32_t cur_block_ = 0;  ///< Relative to first_block_.
  uint32_t count_ = 0;      ///< Postings in the decoded block.
  uint32_t pos_ = 0;        ///< Index into the decoded block.
  uint32_t cur_doc_ = kEndDoc;
  uint32_t docs_[kPostingBlockSize];
  uint32_t tfs_[kPostingBlockSize];
};

}  // namespace ckr

#endif  // CKR_INDEX_BLOCK_POSTINGS_H_
