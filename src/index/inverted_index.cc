#include "index/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "framework/golomb.h"
#include "index/docid_reorder.h"
#include "obs/hooks.h"
#include "text/tokenizer.h"

namespace ckr {

void CollectionStats::Absorb(const CollectionStats& other) {
  num_docs += other.num_docs;
  total_tokens += other.total_tokens;
  for (const auto& [term, df] : other.doc_freq) {
    doc_freq[term] += df;
  }
}

namespace {

/// Per-thread working arrays of the exhaustive scan (Search) and the
/// union count (RegularResultCount). They grow to the largest index the
/// thread has searched — 13 B per document — and are all-zero between
/// calls: each call resets exactly the entries it touched, so no call
/// allocates or clears a docs-sized array.
struct ScanScratch {
  std::vector<double> acc;        ///< BM25 score sum per doc.
  std::vector<uint8_t> seen;      ///< 1 while a doc is marked.
  std::vector<uint32_t> touched;  ///< Distinct docs touched, first-touch
                                  ///< order; docs + 1 slots.
};

ScanScratch& ThreadScanScratch(size_t num_docs) {
  static thread_local ScanScratch scratch;
  if (scratch.seen.size() < num_docs) {
    scratch.acc.resize(num_docs, 0.0);
    scratch.seen.resize(num_docs, 0);
    scratch.touched.resize(num_docs + 1);
  }
  return scratch;
}

}  // namespace

uint32_t InvertedIndex::InternTerm(std::string_view token) {
  auto it = term_ids_.find(token);
  if (it != term_ids_.end()) return it->second;
  uint32_t tid = static_cast<uint32_t>(term_ids_.size());
  term_ids_.emplace(std::string(token), tid);
  return tid;
}

uint32_t InvertedIndex::LookupTerm(std::string_view term) const {
  auto it = term_ids_.find(term);
  return it == term_ids_.end() ? kInvalidTid : it->second;
}

void InvertedIndex::Add(const Document& doc) {
  CKR_DCHECK(!finalized_);
  if (doc_tok_offset_.empty()) doc_tok_offset_.push_back(0);
  std::vector<Token> toks = Tokenize(doc.text);
  for (const Token& t : toks) {
    tok_tid_.push_back(InternTerm(t.text));
    if (options_.store_text) {
      tok_begin_.push_back(static_cast<uint32_t>(t.begin));
      tok_end_.push_back(static_cast<uint32_t>(t.end));
    }
  }
  doc_tok_offset_.push_back(tok_tid_.size());
  doc_index_[doc.id] = static_cast<uint32_t>(docs_.size());
  docs_.push_back({doc.id, options_.store_text ? doc.text : std::string()});
}

void InvertedIndex::ApplyDocidOrder() {
  const size_t num_docs = docs_.size();
  std::vector<uint32_t> order;
  if (options_.docid_order == DocidOrder::kBisection) {
    order = ComputeBisectionOrder(MakeSpan(tok_tid_), MakeSpan(doc_tok_offset_),
                                  term_ids_.size());
  } else if (options_.docid_order == DocidOrder::kExplicit) {
    order = options_.explicit_order;
    CKR_CHECK_EQ(order.size(), num_docs);
    std::vector<uint8_t> hit(num_docs, 0);
    for (uint32_t o : order) {
      CKR_CHECK_LT(o, num_docs);
      CKR_CHECK(!hit[o]);
      hit[o] = 1;
    }
  }
  bool identity = true;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] != i) {
      identity = false;
      break;
    }
  }
  if (order.empty() || identity) return;

  std::vector<StoredDoc> new_docs(num_docs);
  std::vector<size_t> new_offset;
  new_offset.reserve(num_docs + 1);
  new_offset.push_back(0);
  std::vector<uint32_t> new_tid;
  new_tid.reserve(tok_tid_.size());
  std::vector<uint32_t> new_begin;
  std::vector<uint32_t> new_end;
  const bool has_offsets = !tok_begin_.empty();
  if (has_offsets) {
    new_begin.reserve(tok_begin_.size());
    new_end.reserve(tok_end_.size());
  }
  for (size_t i = 0; i < num_docs; ++i) {
    const uint32_t od = order[i];
    new_docs[i] = std::move(docs_[od]);
    for (size_t j = doc_tok_offset_[od]; j < doc_tok_offset_[od + 1]; ++j) {
      new_tid.push_back(tok_tid_[j]);
      if (has_offsets) {
        new_begin.push_back(tok_begin_[j]);
        new_end.push_back(tok_end_[j]);
      }
    }
    new_offset.push_back(new_tid.size());
  }
  docs_ = std::move(new_docs);
  doc_tok_offset_ = std::move(new_offset);
  tok_tid_ = std::move(new_tid);
  tok_begin_ = std::move(new_begin);
  tok_end_ = std::move(new_end);
  for (size_t d = 0; d < num_docs; ++d) {
    doc_index_[docs_[d].id] = static_cast<uint32_t>(d);
  }
}

void InvertedIndex::Finalize() {
  const size_t num_docs = docs_.size();
  const size_t num_terms = term_ids_.size();
  if (doc_tok_offset_.empty()) doc_tok_offset_.push_back(0);
  ApplyDocidOrder();

  doc_len_.resize(num_docs);
  uint64_t total_len = 0;
  for (size_t d = 0; d < num_docs; ++d) {
    doc_len_[d] =
        static_cast<uint32_t>(doc_tok_offset_[d + 1] - doc_tok_offset_[d]);
    total_len += doc_len_[d];
  }
  avg_doc_len_ =
      num_docs == 0
          ? 0.0
          : static_cast<double>(total_len) / static_cast<double>(num_docs);
  score_num_docs_ = static_cast<double>(num_docs);

  const Bm25Params defaults;
  default_norm_.resize(num_docs);
  for (size_t d = 0; d < num_docs; ++d) {
    double dl = static_cast<double>(doc_len_[d]);
    default_norm_[d] = defaults.k1 * (1.0 - defaults.b +
                                      defaults.b * dl / avg_doc_len_);
  }

  // Pass 1: document frequency per term = number of posting slots.
  std::vector<uint32_t> df(num_terms, 0);
  std::vector<uint32_t> last_doc(num_terms, kInvalidTid);
  for (size_t d = 0; d < num_docs; ++d) {
    for (size_t i = doc_tok_offset_[d]; i < doc_tok_offset_[d + 1]; ++i) {
      uint32_t tid = tok_tid_[i];
      if (last_doc[tid] != d) {
        last_doc[tid] = static_cast<uint32_t>(d);
        ++df[tid];
      }
    }
  }
  post_offset_.assign(num_terms + 1, 0);
  for (size_t t = 0; t < num_terms; ++t) {
    post_offset_[t + 1] = post_offset_[t] + df[t];
  }
  const size_t num_slots = post_offset_[num_terms];
  post_doc_.resize(num_slots);
  post_tf_.resize(num_slots);
  pos_offset_.resize(num_slots);
  pos_len_.resize(num_slots);
  pos_first_.resize(num_slots);
  pos_pool_.clear();

  // Pass 2 (doc-major, so each term's slots come out sorted by doc):
  // group the document's occurrences by term id, then emit one slot per
  // group with its positions Golomb-coded into the shared pool.
  std::vector<size_t> cursor(post_offset_.begin(), post_offset_.end() - 1);
  std::vector<std::pair<uint32_t, uint32_t>> occ;  // (tid, position)
  std::vector<uint32_t> positions;
  for (size_t d = 0; d < num_docs; ++d) {
    occ.clear();
    uint32_t pos = 0;
    for (size_t i = doc_tok_offset_[d]; i < doc_tok_offset_[d + 1]; ++i) {
      occ.emplace_back(tok_tid_[i], pos++);
    }
    // Stable: positions stay ascending within each term group.
    std::stable_sort(occ.begin(), occ.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    const uint32_t universe = doc_len_[d];
    for (size_t i = 0; i < occ.size();) {
      uint32_t tid = occ[i].first;
      positions.clear();
      while (i < occ.size() && occ[i].first == tid) {
        positions.push_back(occ[i].second);
        ++i;
      }
      size_t slot = cursor[tid]++;
      post_doc_[slot] = static_cast<uint32_t>(d);
      post_tf_[slot] = static_cast<uint32_t>(positions.size());
      auto offset_or = AppendEncodedSortedIds(positions, universe, &pos_pool_);
      CKR_DCHECK(offset_or.ok());
      pos_offset_[slot] = *offset_or;
      pos_len_[slot] = static_cast<uint32_t>(pos_pool_.size() - *offset_or);
      pos_first_[slot] = positions.front();
    }
  }
  pos_pool_.shrink_to_fit();
#if CKR_DEBUG_CHECKS
  // Frozen-layout invariants: the slot offset table is monotone and fully
  // consumed, every slot's doc index is in range and strictly ascending
  // within its term (pass 2 emits doc-major), and every positions blob
  // lies inside the shared pool.
  CKR_DCHECK_EQ(post_offset_.size(), num_terms + 1);
  for (size_t t = 0; t < num_terms; ++t) {
    CKR_DCHECK_LE(post_offset_[t], post_offset_[t + 1]);
    CKR_DCHECK_EQ(cursor[t], post_offset_[t + 1]);
    for (size_t slot = post_offset_[t]; slot < post_offset_[t + 1]; ++slot) {
      CKR_DCHECK_LT(post_doc_[slot], num_docs);
      if (slot > post_offset_[t]) {
        CKR_DCHECK_LT(post_doc_[slot - 1], post_doc_[slot]);
      }
      CKR_DCHECK_LE(pos_offset_[slot] + pos_len_[slot], pos_pool_.size());
    }
  }
  for (uint32_t tid : tok_tid_) CKR_DCHECK_LT(tid, num_terms);
#endif
  finalized_ = true;
  if (options_.build_signature_filter) {
    // Term-major over the freshly built CSR postings: each term's probe
    // bits are hashed once and OR-ed into every posting's doc row.
    signatures_ = SignatureMatrix(options_.signature);
    signatures_.Reset(num_docs);
    for (size_t t = 0; t < num_terms; ++t) {
      signatures_.AddTermToRows(static_cast<uint32_t>(t),
                                CsrRow(post_doc_, post_offset_, t));
    }
    has_signatures_ = true;
  }
  if (options_.build_block_index) RebuildBlockIndex(options_.block_codec);
}

void InvertedIndex::RebuildBlockIndex(BlockCodec codec) {
  CKR_DCHECK(finalized_);
  std::vector<DocId> ext_ids;
  ext_ids.reserve(docs_.size());
  for (const StoredDoc& d : docs_) ext_ids.push_back(d.id);
  BlockMaxIndex::Builder builder(codec, std::move(ext_ids), default_norm_);
  const size_t num_terms = term_ids_.size();
  for (size_t t = 0; t < num_terms; ++t) {
    if (stats_overridden_) {
      // Same idf expression as the exhaustive scorer above, fed with the
      // overridden (n, df) so the term maxima and per-posting scores stay
      // bit-identical to the single-index oracle.
      const double dfd = score_df_[t];
      const double idf =
          std::log(1.0 + (score_num_docs_ - dfd + 0.5) / (dfd + 0.5));
      builder.AddTerm(CsrRow(post_doc_, post_offset_, t),
                      CsrRow(post_tf_, post_offset_, t), idf);
    } else {
      builder.AddTerm(CsrRow(post_doc_, post_offset_, t),
                      CsrRow(post_tf_, post_offset_, t));
    }
  }
  block_index_ = builder.Finish();
  has_block_index_ = true;
}

Status InvertedIndex::LoadBlockIndex(std::string_view blob) {
  CKR_DCHECK(finalized_);
  if (stats_overridden_) {
    // Serialized blobs recompute idf from their *local* (df, n); loading
    // one here would silently drop the collection-wide statistics.
    return Status::FailedPrecondition(
        "cannot load a serialized block index while collection stats are "
        "overridden; RebuildBlockIndex instead");
  }
  StatusOr<BlockMaxIndex> loaded = BlockMaxIndex::Deserialize(blob);
  if (!loaded.ok()) return loaded.status();
  if (loaded->NumDocs() != docs_.size()) {
    return Status::InvalidArgument("block index blob: doc count mismatch");
  }
  if (loaded->NumTerms() != term_ids_.size()) {
    return Status::InvalidArgument("block index blob: term count mismatch");
  }
  // Search answers kExhaustive from the CSR columns and kMaxScore from the
  // block index, so the blob must hold exactly this index's ids, norms
  // and postings for the two to agree bit for bit.
  for (size_t d = 0; d < docs_.size(); ++d) {
    if (loaded->ExternalId(static_cast<uint32_t>(d)) != docs_[d].id) {
      return Status::InvalidArgument("block index blob: doc id mismatch");
    }
    if (loaded->DefaultNorm(static_cast<uint32_t>(d)) != default_norm_[d]) {
      return Status::InvalidArgument("block index blob: norm mismatch");
    }
  }
  for (size_t t = 0; t < term_ids_.size(); ++t) {
    const uint32_t tid = static_cast<uint32_t>(t);
    if (loaded->store().TermPostings(tid) !=
        post_offset_[t + 1] - post_offset_[t]) {
      return Status::InvalidArgument(
          "block index blob: document frequency mismatch");
    }
    PostingCursor cursor(&loaded->store(), tid);
    for (size_t p = post_offset_[t]; p < post_offset_[t + 1]; ++p) {
      if (cursor.doc() != post_doc_[p] || cursor.tf() != post_tf_[p]) {
        return Status::InvalidArgument("block index blob: posting mismatch");
      }
      cursor.Next();
    }
  }
  block_index_ = std::move(loaded).value();
  has_block_index_ = true;
  return Status::OK();
}

uint32_t InvertedIndex::DocFreq(std::string_view term) const {
  uint32_t tid = LookupTerm(term);
  if (tid == kInvalidTid) return 0;
  return static_cast<uint32_t>(post_offset_[tid + 1] - post_offset_[tid]);
}

CollectionStats InvertedIndex::LocalCollectionStats() const {
  CKR_DCHECK(finalized_);
  CollectionStats stats;
  stats.num_docs = docs_.size();
  stats.total_tokens = tok_tid_.size();
  stats.doc_freq.reserve(term_ids_.size());
  for (const auto& [term, tid] : term_ids_) {
    stats.doc_freq.emplace(
        term, static_cast<uint64_t>(post_offset_[tid + 1] - post_offset_[tid]));
  }
  return stats;
}

Status InvertedIndex::OverrideCollectionStats(const CollectionStats& stats) {
  if (!finalized_) {
    return Status::FailedPrecondition(
        "OverrideCollectionStats requires a finalized index");
  }
  if (stats.num_docs < docs_.size()) {
    return Status::InvalidArgument(
        "collection stats: num_docs below this index's document count");
  }
  if (stats.total_tokens < tok_tid_.size()) {
    return Status::InvalidArgument(
        "collection stats: total_tokens below this index's token count");
  }
  // Validate and gather per-tid df before mutating anything.
  std::vector<double> df(term_ids_.size(), 0.0);
  for (const auto& [term, tid] : term_ids_) {
    auto it = stats.doc_freq.find(term);
    if (it == stats.doc_freq.end()) {
      return Status::InvalidArgument(
          "collection stats: missing document frequency for term '" + term +
          "'");
    }
    const uint64_t local = post_offset_[tid + 1] - post_offset_[tid];
    if (it->second < local) {
      return Status::InvalidArgument(
          "collection stats: document frequency of term '" + term +
          "' below this index's local df");
    }
    df[tid] = static_cast<double>(it->second);
  }
  score_df_ = std::move(df);
  score_num_docs_ = static_cast<double>(stats.num_docs);
  avg_doc_len_ = stats.num_docs == 0
                     ? 0.0
                     : static_cast<double>(stats.total_tokens) /
                           static_cast<double>(stats.num_docs);
  stats_overridden_ = true;
  // Same expression, in the same operation order, as Finalize() — the
  // oracle index computes its norms with this exact arithmetic, so each
  // shard's norms are bit-identical to the oracle's for shared documents.
  const Bm25Params defaults;
  for (size_t d = 0; d < docs_.size(); ++d) {
    const double dl = static_cast<double>(doc_len_[d]);
    default_norm_[d] =
        defaults.k1 * (1.0 - defaults.b + defaults.b * dl / avg_doc_len_);
  }
  if (has_block_index_) RebuildBlockIndex(block_index_.codec());
  return Status::OK();
}

std::vector<SearchResult> InvertedIndex::Search(
    std::string_view query, size_t k, const Bm25Params& params,
    QueryEvaluator evaluator) const {
  CKR_DCHECK(finalized_);
  std::vector<std::string> terms = TokenizeToStrings(query);
  // Deduplicate query terms (same sorted accumulation order as the legacy
  // path, so per-doc floating-point sums are bit-identical).
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  // Empty/whitespace-only query: no terms, no results — return before
  // touching the scan scratch (all evaluators agree on {}).
  if (terms.empty()) {
    CKR_OBS_COUNTER_INC("ckr.index.searches");
    return {};
  }

  const bool default_params =
      params.k1 == Bm25Params{}.k1 && params.b == Bm25Params{}.b;
  if (evaluator != QueryEvaluator::kExhaustive && default_params &&
      has_block_index_) {
    // Pruned evaluation on the block index. Term ids are passed in the
    // sorted-term order used below, so the pruned score sums replay the
    // exhaustive accumulation order addend by addend (bit-identical).
    std::vector<uint32_t> tids;
    tids.reserve(terms.size());
    for (const std::string& term : terms) {
      uint32_t tid = LookupTerm(term);
      if (tid != kInvalidTid) tids.push_back(tid);
    }
    CKR_OBS_COUNTER_INC("ckr.index.searches");
    CKR_OBS_COUNTER_ADD("ckr.index.search_terms", terms.size());
    return block_index_.TopK(MakeSpan(tids), k, evaluator);
  }
  const double n = score_num_docs_;
  ScanScratch& scratch = ThreadScanScratch(docs_.size());
  double* const acc = scratch.acc.data();
  uint8_t* const seen = scratch.seen.data();
  uint32_t* const touched = scratch.touched.data();
  const double* const default_norm = default_norm_.data();
  const uint32_t* const doc_len = doc_len_.data();
  // Loop invariants in locals: through `params` and the members the
  // compiler must assume the acc stores alias them and reload per posting.
  const double k1 = params.k1;
  const double b = params.b;
  const double k1_plus_1 = params.k1 + 1.0;
  const double avg_doc_len = avg_doc_len_;
  size_t num_touched = 0;
  for (const std::string& term : terms) {
    uint32_t tid = LookupTerm(term);
    if (tid == kInvalidTid) continue;
    const Span<const uint32_t> slot_docs = CsrRow(post_doc_, post_offset_, tid);
    const Span<const uint32_t> slot_tfs = CsrRow(post_tf_, post_offset_, tid);
    CKR_OBS_COUNTER_ADD("ckr.index.postings_scored", slot_docs.size());
    const double dfd = stats_overridden_
                           ? score_df_[tid]
                           : static_cast<double>(slot_docs.size());
    double idf = std::log(1.0 + (n - dfd + 0.5) / (dfd + 0.5));
    const uint32_t* const docs = slot_docs.data();
    const uint32_t* const tfs = slot_tfs.data();
    const size_t len = slot_docs.size();
    for (size_t slot = 0; slot < len; ++slot) {
      const uint32_t d = docs[slot];
      const double tf = static_cast<double>(tfs[slot]);
      const double norm =
          default_params
              ? default_norm[d]
              : k1 * (1.0 - b + b * static_cast<double>(doc_len[d]) /
                                    avg_doc_len);
      acc[d] += idf * tf * k1_plus_1 / (tf + norm);
      // Branch-free first touch: the slot past the last distinct doc is
      // always written and kept only when `d` is new (hence docs + 1
      // slots).
      CKR_DCHECK_LT(num_touched, scratch.touched.size());
      touched[num_touched] = d;
      num_touched += seen[d] ^ 1u;
      seen[d] = 1;
    }
  }
  // Score-first selection, resetting each touched entry as it is read.
  // A doc scoring strictly below a full heap's threshold is one Push
  // would reject anyway, so skipping it before loading its external id
  // leaves the result unchanged.
  TopKHeap heap(k);
  for (size_t i = 0; i < num_touched; ++i) {
    const uint32_t d = touched[i];
    const double score = acc[d];
    acc[d] = 0.0;
    seen[d] = 0;
    if (heap.Full() && score < heap.ThresholdScore()) continue;
    heap.Push({docs_[d].id, score});
  }
  CKR_OBS_COUNTER_INC("ckr.index.searches");
  CKR_OBS_COUNTER_ADD("ckr.index.search_terms", terms.size());
  CKR_OBS_COUNTER_ADD("ckr.index.search_docs_touched", num_touched);
  return heap.Take();
}

uint64_t InvertedIndex::RegularResultCount(std::string_view query) const {
  CKR_DCHECK(finalized_);
  std::vector<std::string> terms = TokenizeToStrings(query);
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  // Empty/whitespace-only query: nothing can match; skip the bitmap.
  if (terms.empty()) return 0;
  // Single-term fast path: the union is one posting list.
  if (terms.size() == 1) return DocFreq(terms[0]);

  std::vector<uint32_t> tids;
  tids.reserve(terms.size());
  for (const std::string& term : terms) {
    uint32_t tid = LookupTerm(term);
    if (tid != kInvalidTid) tids.push_back(tid);
  }
  // Mark the union in the thread's `seen`, then clear exactly those marks
  // by walking the same lists again: at paper scale that second pass
  // beats both a touched list (a store per posting) and clearing a fresh
  // docs-sized bitmap.
  uint8_t* const seen = ThreadScanScratch(docs_.size()).seen.data();
  uint64_t count = 0;
  for (uint32_t tid : tids) {
    for (uint32_t d : CsrRow(post_doc_, post_offset_, tid)) {
      count += seen[d] ^ 1u;
      seen[d] = 1;
    }
  }
  for (uint32_t tid : tids) {
    for (uint32_t d : CsrRow(post_doc_, post_offset_, tid)) seen[d] = 0;
  }
  return count;
}

void InvertedIndex::DecodePositions(size_t slot,
                                    std::vector<uint32_t>* out) const {
  Status s = DecodeSortedIdsInto(pos_pool_.data() + pos_offset_[slot],
                                 pos_len_[slot], out);
  (void)s;
  CKR_DCHECK(s.ok());
}

bool InvertedIndex::ResolvePhrase(std::string_view phrase,
                                  std::vector<uint32_t>* tids,
                                  size_t* rarest) const {
  std::vector<std::string> terms = TokenizeToStrings(phrase);
  if (terms.empty()) return false;
  tids->clear();
  tids->reserve(terms.size());
  for (const std::string& t : terms) {
    uint32_t tid = LookupTerm(t);
    if (tid == kInvalidTid) return false;
    tids->push_back(tid);
  }
  // Rarest-term selection drives both the seeding posting list and the
  // PhraseSearch idf. Under a collection-stats override the comparison
  // uses the global df so every shard (and the oracle) picks the same
  // term — any term is a correct positional seed, but the idf must match.
  auto eff_df = [this](uint32_t tid) {
    return stats_overridden_
               ? score_df_[tid]
               : static_cast<double>(post_offset_[tid + 1] -
                                     post_offset_[tid]);
  };
  *rarest = 0;
  for (size_t i = 1; i < tids->size(); ++i) {
    if (eff_df((*tids)[i]) < eff_df((*tids)[*rarest])) *rarest = i;
  }
  return true;
}

namespace {

/// True if the phrase window starting at rarest-occurrence `q` matches the
/// doc's token stream. A window match at start p means every token p+t
/// equals term t, which holds iff term t has a position at p+t (positions
/// come from the same token stream) — so witnesses are exactly the legacy
/// ones.
inline bool WindowMatches(Span<const uint32_t> toks, uint32_t q,
                          size_t rarest, const std::vector<uint32_t>& tids) {
  if (q < rarest) return false;
  const uint32_t p = q - static_cast<uint32_t>(rarest);
  const uint32_t width = static_cast<uint32_t>(tids.size());
  if (p + width > toks.size()) return false;
  for (uint32_t t = 0; t < width; ++t) {
    if (t == rarest) continue;  // q is a known occurrence.
    if (toks[p + t] != tids[t]) return false;
  }
  return true;
}

}  // namespace

bool InvertedIndex::PhraseInDoc(uint32_t d, const std::vector<uint32_t>& tids,
                                size_t rarest, size_t rarest_slot,
                                std::vector<uint32_t>* pos_buf,
                                uint32_t* num_starts) const {
  const Span<const uint32_t> toks = CsrRow(tok_tid_, doc_tok_offset_, d);
  CKR_DCHECK_EQ(toks.size(), doc_len_[d]);
  const uint32_t tf = post_tf_[rarest_slot];
  const bool first_hits =
      WindowMatches(toks, pos_first_[rarest_slot], rarest, tids);

  if (num_starts == nullptr) {
    // Existence only: the stored first position answers most docs without
    // touching the compressed pool.
    if (first_hits) return true;
    if (tf == 1) return false;
    DecodePositions(rarest_slot, pos_buf);
    for (size_t i = 1; i < pos_buf->size(); ++i) {
      if (WindowMatches(toks, (*pos_buf)[i], rarest, tids)) return true;
    }
    return false;
  }

  uint32_t starts = 0;
  if (tf == 1) {
    starts = first_hits ? 1 : 0;
  } else {
    DecodePositions(rarest_slot, pos_buf);
    for (uint32_t q : *pos_buf) {
      if (WindowMatches(toks, q, rarest, tids)) ++starts;
    }
  }
  *num_starts = starts;
  return starts > 0;
}

uint64_t InvertedIndex::PhraseResultCount(std::string_view phrase) const {
  CKR_DCHECK(finalized_);
  std::vector<uint32_t> tids;
  size_t rarest = 0;
  if (!ResolvePhrase(phrase, &tids, &rarest)) return 0;
  // Single-term phrase: every posting slot is a match.
  if (tids.size() == 1) {
    return post_offset_[tids[0] + 1] - post_offset_[tids[0]];
  }

  // Signature prefilter: a seed document whose signature does not cover
  // every phrase term provably lacks one of them, so the positional check
  // cannot succeed — skipping it never changes the count (exact-safe;
  // duplicate phrase terms just OR the same bits twice).
  std::vector<uint64_t> qsig;
  const bool gated = has_signatures_;
  if (gated) signatures_.BuildSignature(MakeSpan(tids), &qsig);

  std::vector<uint32_t> pos_buf;
  uint64_t count = 0;
  const size_t rb = post_offset_[tids[rarest]];
  const size_t re = post_offset_[tids[rarest] + 1];
  for (size_t seed = rb; seed < re; ++seed) {
    const uint32_t d = post_doc_[seed];
    if (gated) {
      CKR_OBS_COUNTER_INC("ckr.sig.docs_tested");
      if (!signatures_.CoversAll(d, MakeSpan(qsig))) {
        CKR_OBS_COUNTER_INC("ckr.sig.docs_rejected");
        continue;
      }
    }
    if (PhraseInDoc(d, tids, rarest, seed, &pos_buf, nullptr)) {
      ++count;
    }
  }
  return count;
}

std::vector<SearchResult> InvertedIndex::PhraseSearch(std::string_view phrase,
                                                      size_t k) const {
  CKR_DCHECK(finalized_);
  CKR_OBS_COUNTER_INC("ckr.index.phrase_searches");
  std::vector<uint32_t> tids;
  size_t rarest = 0;
  if (!ResolvePhrase(phrase, &tids, &rarest)) return {};

  const double n = score_num_docs_;
  const size_t rb = post_offset_[tids[rarest]];
  const size_t re = post_offset_[tids[rarest] + 1];
  const double dfr = stats_overridden_ ? score_df_[tids[rarest]]
                                       : static_cast<double>(re - rb);
  // Loop-invariant in the legacy code; identical expression, same bits.
  const double idf = std::log(1.0 + (n - dfr + 0.5) / (dfr + 0.5));

  // Same exact-safe prefilter as PhraseResultCount. Single-term phrases
  // skip it: every seed trivially covers its own term's bits.
  std::vector<uint64_t> qsig;
  const bool gated = has_signatures_ && tids.size() > 1;
  if (gated) signatures_.BuildSignature(MakeSpan(tids), &qsig);

  TopKHeap heap(k);
  std::vector<uint32_t> pos_buf;
  for (size_t seed = rb; seed < re; ++seed) {
    uint32_t d = post_doc_[seed];
    if (gated) {
      CKR_OBS_COUNTER_INC("ckr.sig.docs_tested");
      if (!signatures_.CoversAll(d, MakeSpan(qsig))) {
        CKR_OBS_COUNTER_INC("ckr.sig.docs_rejected");
        continue;
      }
    }
    uint32_t starts = 0;
    if (tids.size() == 1) {
      starts = post_tf_[seed];  // Every occurrence is a phrase start.
    } else if (!PhraseInDoc(d, tids, rarest, seed, &pos_buf, &starts)) {
      continue;
    }
    double dl = static_cast<double>(doc_len_[d]);
    double score =
        idf * static_cast<double>(starts) / (1.0 + 0.002 * dl);
    heap.Push({docs_[d].id, score});
  }
  return heap.Take();
}

std::vector<SearchResult> InvertedIndex::RelatedDocuments(DocId doc,
                                                          size_t k) const {
  CKR_DCHECK(finalized_);
  if (!has_signatures_ || k == 0) return {};
  const int32_t di = FindDocIndex(doc);
  if (di < 0) return {};
  const size_t src = static_cast<size_t>(di);
  CKR_OBS_COUNTER_INC("ckr.sig.related_queries");
  // One popcount sweep over the contiguous signature pool; the bounded
  // heap keeps the Search ranking contract (descending similarity, ties
  // by ascending external id), so the top-k is unique and docid-order
  // invariant.
  TopKHeap heap(k);
  for (size_t d = 0; d < docs_.size(); ++d) {
    if (d == src) continue;
    const uint32_t sim =
        signatures_.HammingSimilarity(src, d);
    heap.Push({docs_[d].id, static_cast<double>(sim)});
  }
  return heap.Take();
}

int32_t InvertedIndex::FindDocIndex(DocId id) const {
  auto it = doc_index_.find(id);
  return it == doc_index_.end() ? -1 : static_cast<int32_t>(it->second);
}

const std::string& InvertedIndex::DocText(DocId doc) const {
  static const std::string* const kEmpty = new std::string();
  int32_t d = FindDocIndex(doc);
  return d < 0 ? *kEmpty : docs_[static_cast<size_t>(d)].text;
}

std::string InvertedIndex::Snippet(DocId doc, std::string_view query,
                                   size_t context_tokens) const {
  if (!options_.store_text) return "";  // No text/offsets to slice.
  int32_t di = FindDocIndex(doc);
  if (di < 0) return "";
  const size_t d = static_cast<size_t>(di);
  const size_t tok_begin = doc_tok_offset_[d];
  const size_t num_tokens = doc_tok_offset_[d + 1] - tok_begin;
  if (num_tokens == 0) return "";
  const uint32_t* tids = tok_tid_.data() + tok_begin;

  // Query tokens as term ids; out-of-vocabulary terms get the invalid id,
  // which matches no document token (every document token is interned).
  std::vector<std::string> terms = TokenizeToStrings(query);
  std::vector<uint32_t> qtids;
  qtids.reserve(terms.size());
  for (const std::string& t : terms) qtids.push_back(LookupTerm(t));

  // Prefer the first contiguous phrase hit; fall back to the first hit of
  // any query term; fall back to the document head.
  size_t center = 0;
  bool found = false;
  if (!qtids.empty()) {
    for (size_t i = 0; i + qtids.size() <= num_tokens && !found; ++i) {
      bool match = true;
      for (size_t j = 0; j < qtids.size(); ++j) {
        if (tids[i + j] != qtids[j]) {
          match = false;
          break;
        }
      }
      if (match) {
        center = i + qtids.size() / 2;
        found = true;
      }
    }
    for (size_t i = 0; i < num_tokens && !found; ++i) {
      for (uint32_t q : qtids) {
        if (q != kInvalidTid && tids[i] == q) {
          center = i;
          found = true;
          break;
        }
      }
    }
  }
  size_t half = context_tokens / 2;
  size_t lo = center > half ? center - half : 0;
  size_t hi = std::min(num_tokens, lo + context_tokens);
  if (hi - lo < context_tokens && hi == num_tokens) {
    lo = hi > context_tokens ? hi - context_tokens : 0;
  }
  size_t byte_lo = tok_begin_[tok_begin + lo];
  size_t byte_hi = tok_end_[tok_begin + hi - 1];
  std::string out = docs_[d].text.substr(byte_lo, byte_hi - byte_lo);
  // Normalize whitespace (including CR, so CRLF text stays single-line).
  for (char& c : out) {
    if (c == '\n' || c == '\t' || c == '\r') c = ' ';
  }
  return out;
}

size_t InvertedIndex::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const StoredDoc& d : docs_) {
    bytes += sizeof(StoredDoc) + d.text.capacity();
  }
  bytes += doc_index_.bucket_count() * sizeof(void*);
  bytes += doc_index_.size() *
           (sizeof(std::pair<DocId, uint32_t>) + 2 * sizeof(void*));
  bytes += doc_tok_offset_.capacity() * sizeof(size_t);
  bytes += tok_tid_.capacity() * sizeof(uint32_t);
  bytes += tok_begin_.capacity() * sizeof(uint32_t);
  bytes += tok_end_.capacity() * sizeof(uint32_t);
  bytes += term_ids_.bucket_count() * sizeof(void*);
  for (const auto& [term, tid] : term_ids_) {
    (void)tid;
    bytes += sizeof(std::pair<std::string, uint32_t>) + 2 * sizeof(void*);
    if (term.capacity() > sizeof(std::string)) bytes += term.capacity();
  }
  bytes += post_offset_.capacity() * sizeof(size_t);
  bytes += post_doc_.capacity() * sizeof(uint32_t);
  bytes += post_tf_.capacity() * sizeof(uint32_t);
  bytes += pos_offset_.capacity() * sizeof(uint64_t);
  bytes += pos_len_.capacity() * sizeof(uint32_t);
  bytes += pos_first_.capacity() * sizeof(uint32_t);
  bytes += pos_pool_.capacity();
  bytes += doc_len_.capacity() * sizeof(uint32_t);
  bytes += default_norm_.capacity() * sizeof(double);
  bytes += score_df_.capacity() * sizeof(double);
  bytes += block_index_.MemoryBytes();
  bytes += signatures_.MemoryBytes();
  return bytes;
}

}  // namespace ckr
