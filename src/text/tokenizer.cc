#include "text/tokenizer.h"

#include <cctype>

#include "common/string_util.h"
#include "text/porter_stemmer.h"

namespace ckr {
namespace {

// The "C" locale's space and upper-case classes, inline: the text domain
// is ASCII, and a <cctype> call per byte was half of tokenization's time.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

char ToLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool AllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

void TokenizeInto(std::string_view text, std::vector<Token>* out,
                  const TokenizerOptions& options) {
  size_t count = 0;  // Slots [0, count) of *out are live; the rest reuse
                     // their string capacity from earlier documents.
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && IsSpace(text[i])) ++i;
    if (i >= n) break;
    size_t start = i;
    while (i < n && !IsSpace(text[i])) ++i;
    std::string_view piece = text.substr(start, i - start);
    size_t begin = start;
    if (options.strip_punct) {
      std::string_view stripped = StripSurroundingPunct(piece);
      begin = start + static_cast<size_t>(stripped.data() - piece.data());
      piece = stripped;
    }
    if (piece.empty()) continue;
    if (!options.keep_numbers && AllDigits(piece)) continue;
    if (count == out->size()) out->emplace_back();
    Token& tok = (*out)[count++];
    if (options.lowercase) {
      tok.text.resize(piece.size());
      for (size_t c = 0; c < piece.size(); ++c) {
        tok.text[c] = ToLower(piece[c]);
      }
    } else {
      tok.text.assign(piece);
    }
    // Possessive normalization: "obama's" matches the entity "obama" (the
    // offsets keep the full surface).
    if (tok.text.size() > 2 && EndsWith(tok.text, "'s")) {
      tok.text.resize(tok.text.size() - 2);
    }
    tok.begin = begin;
    tok.end = begin + piece.size();
  }
  out->resize(count);
}

std::vector<Token> Tokenize(std::string_view text,
                            const TokenizerOptions& options) {
  std::vector<Token> tokens;
  TokenizeInto(text, &tokens, options);
  return tokens;
}

std::vector<std::string> TokenizeToStrings(std::string_view text,
                                           const TokenizerOptions& options) {
  std::vector<std::string> out;
  for (auto& tok : Tokenize(text, options)) out.push_back(std::move(tok.text));
  return out;
}

std::string NormalizePhrase(std::string_view phrase) {
  std::vector<std::string> tokens = TokenizeToStrings(phrase);
  return JoinStrings(tokens, " ");
}

std::string StemPhrase(std::string_view phrase) {
  std::vector<std::string> tokens = TokenizeToStrings(phrase);
  for (std::string& t : tokens) t = PorterStem(t);
  return JoinStrings(tokens, " ");
}

}  // namespace ckr
