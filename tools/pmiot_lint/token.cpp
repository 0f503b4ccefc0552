#include "pmiot_lint/token.h"

namespace pmiot::lint {
namespace {

bool is_ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool is_ident_char(char c) { return is_ident_start(c) || (c >= '0' && c <= '9'); }

bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool is_hspace(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// True when the `"` at index `i` closes a raw-string prefix (R, LR, uR,
/// UR, u8R as a complete token).
bool is_raw_string_open(const std::string& text, std::size_t i) {
  if (i == 0 || text[i - 1] != 'R') return false;
  if (i < 2 || !is_ident_char(text[i - 2])) return true;  // bare R"
  const char p = text[i - 2];
  if ((p == 'L' || p == 'u' || p == 'U') &&
      (i < 3 || !is_ident_char(text[i - 3]))) {
    return true;  // LR" uR" UR"
  }
  if (p == '8' && i >= 3 && text[i - 3] == 'u' &&
      (i < 4 || !is_ident_char(text[i - 4]))) {
    return true;  // u8R"
  }
  return false;  // identifier that merely ends in R
}

/// Pass 1: blank comment bodies and literal contents in place, collect
/// comment text per line. Leaves quotes and the comment-introducing
/// punctuation visible so offsets stay meaningful.
void blank_comments_and_literals(ScanResult& out) {
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  std::string& code = out.code;
  // Lookbacks (block-comment close, comment line continuation, digit
  // separators, raw-string delimiters) must read the *original* text:
  // `code` is blanked in place, so by the time we inspect `code[i - 1]`
  // the interesting character may already be a space.
  const std::string text = code;
  out.comments.emplace_back();
  State state = State::kCode;
  std::string raw_close;      // ")delim\"" for the active raw string
  std::size_t block_open = 0;  // index of '/' that opened the block comment

  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '\n') {
      if (state == State::kLine) {
        // Phase-2 splicing runs before comment recognition, so a line
        // comment whose last character is a backslash swallows the next
        // physical line.
        std::size_t b = i;
        while (b > 0 && text[b - 1] == '\r') --b;
        if (!(b > 0 && text[b - 1] == '\\')) state = State::kCode;
      }
      out.comments.emplace_back();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < code.size() && code[i + 1] == '/') {
          state = State::kLine;
          code[i] = ' ';
          code[i + 1] = ' ';
          ++i;
        } else if (c == '/' && i + 1 < code.size() && code[i + 1] == '*') {
          state = State::kBlock;
          block_open = i;
          code[i] = ' ';
          code[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = is_raw_string_open(text, i) ? State::kRaw : State::kString;
          if (state == State::kRaw) {
            // (assign-via-clear sidesteps a GCC 12 -Wrestrict false
            // positive on string literal assignment)
            raw_close.clear();
            raw_close.push_back(')');
            std::size_t j = i + 1;
            while (j < code.size() && code[j] != '(' && code[j] != '\n') {
              raw_close += code[j];
              code[j] = ' ';
              ++j;
            }
            raw_close += '"';
            if (j < code.size() && code[j] == '(') code[j] = ' ';
            i = j;
          }
        } else if (c == '\'' && !(i > 0 && is_ident_char(text[i - 1]))) {
          // A quote glued to an identifier/number character is a C++14
          // digit separator (1'000'000), not a char literal.
          state = State::kChar;
        }
        break;
      case State::kLine:
        out.comments.back() += c;
        code[i] = ' ';
        break;
      case State::kBlock:
        if (c == '/' && text[i - 1] == '*' && i >= block_open + 3) {
          state = State::kCode;
        } else {
          out.comments.back() += c;
        }
        code[i] = ' ';
        break;
      case State::kString:
        if (c == '\\') {
          code[i] = ' ';
          if (i + 1 < code.size() && code[i + 1] != '\n') {
            code[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
        } else {
          code[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          code[i] = ' ';
          if (i + 1 < code.size() && code[i + 1] != '\n') {
            code[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          state = State::kCode;
        } else {
          code[i] = ' ';
        }
        break;
      case State::kRaw:
        if (text.compare(i, raw_close.size(), raw_close) == 0) {
          // Blank the ")delim" part but keep the closing quote visible so
          // the tokenizer sees a balanced string literal.
          for (std::size_t j = 0; j + 1 < raw_close.size(); ++j) {
            code[i + j] = ' ';
          }
          i += raw_close.size() - 1;
          state = State::kCode;
        } else {
          code[i] = ' ';
        }
        break;
    }
  }
}

/// Pass 2: fold preprocessor line continuations into logical directive
/// lines, track conditional nesting, and blank everything inside
/// `#if 0` / `#if false` regions (including their comments, so grants and
/// annotations there do not apply). Conditional directives themselves stay
/// visible.
void blank_disabled_regions(ScanResult& out) {
  // 0 = unknown condition, 1 = known-true, 2 = known-false.
  struct Frame {
    int kind = 0;
    bool in_else = false;
  };
  std::vector<Frame> stack;
  const auto disabled = [&stack] {
    for (const Frame& f : stack) {
      if ((f.kind == 2 && !f.in_else) || (f.kind == 1 && f.in_else)) {
        return true;
      }
    }
    return false;
  };
  const auto classify = [](const std::string& cond) {
    if (cond == "0" || cond == "false") return 2;
    if (cond == "1" || cond == "true") return 1;
    return 0;
  };

  std::string& code = out.code;
  const std::size_t total_lines = out.comments.size();
  out.directive_lines.assign(total_lines, false);

  std::size_t pos = 0;
  std::size_t line = 1;
  while (pos < code.size()) {
    std::size_t end = code.find('\n', pos);
    if (end == std::string::npos) end = code.size();

    std::size_t first = pos;
    while (first < end && is_hspace(code[first])) ++first;
    const bool is_directive = first < end && code[first] == '#';

    std::size_t logical_end = end;
    std::size_t lines_spanned = 1;
    if (is_directive) {
      // Fold backslash continuations into one logical directive line.
      while (logical_end < code.size()) {
        std::size_t last = logical_end;
        while (last > pos && is_hspace(code[last - 1])) --last;
        if (!(last > pos && code[last - 1] == '\\')) break;
        std::size_t next_end = code.find('\n', logical_end + 1);
        if (next_end == std::string::npos) next_end = code.size();
        logical_end = next_end;
        ++lines_spanned;
      }
    }

    if (is_directive) {
      std::size_t p = first + 1;
      while (p < logical_end && is_hspace(code[p])) ++p;
      std::size_t q = p;
      while (q < logical_end && is_ident_char(code[q])) ++q;
      const std::string name = code.substr(p, q - p);
      const bool was_disabled = disabled();
      if (name == "if") {
        std::size_t lo = q;
        while (lo < logical_end && is_hspace(code[lo])) ++lo;
        std::size_t hi = logical_end;
        while (hi > lo &&
               (is_hspace(code[hi - 1]) || code[hi - 1] == '\\')) {
          --hi;
        }
        stack.push_back({classify(code.substr(lo, hi - lo)), false});
      } else if (name == "ifdef" || name == "ifndef") {
        stack.push_back({0, false});
      } else if (name == "elif") {
        if (!stack.empty()) {
          if (stack.back().kind == 1) {
            stack.back().in_else = true;  // a taken #if 1 kills later arms
          } else {
            std::size_t lo = q;
            while (lo < logical_end && is_hspace(code[lo])) ++lo;
            std::size_t hi = logical_end;
            while (hi > lo && is_hspace(code[hi - 1])) --hi;
            stack.back().kind = classify(code.substr(lo, hi - lo));
            stack.back().in_else = false;
          }
        }
      } else if (name == "else") {
        if (!stack.empty()) stack.back().in_else = true;
      } else if (name == "endif") {
        if (!stack.empty()) stack.pop_back();
      } else if (was_disabled) {
        // Non-conditional directive (#define, #include, #pragma, ...)
        // inside a disabled region: invisible.
        for (std::size_t j = pos; j < logical_end; ++j) {
          if (code[j] != '\n') code[j] = ' ';
        }
        for (std::size_t j = 0; j < lines_spanned; ++j) {
          if (line - 1 + j < out.comments.size()) {
            out.comments[line - 1 + j].clear();
          }
        }
        line += lines_spanned;
        pos = logical_end + 1;
        continue;
      }
      for (std::size_t j = 0; j < lines_spanned; ++j) {
        if (line - 1 + j < out.directive_lines.size()) {
          out.directive_lines[line - 1 + j] = true;
        }
      }
      line += lines_spanned;
      pos = logical_end + 1;
      continue;
    }

    if (disabled()) {
      for (std::size_t j = pos; j < end; ++j) code[j] = ' ';
      if (line - 1 < out.comments.size()) out.comments[line - 1].clear();
    }
    ++line;
    pos = end + 1;
  }
}

/// Pass 3: tokenize the blanked code. Directive lines contribute no
/// tokens (rules that need them read `code` directly).
void tokenize(ScanResult& out) {
  const std::string& code = out.code;
  const std::size_t total_lines = out.comments.size();
  out.code_lines.assign(total_lines, false);
  for (std::size_t l = 0; l < out.directive_lines.size(); ++l) {
    if (out.directive_lines[l]) out.code_lines[l] = true;
  }

  std::size_t pos = 0;
  std::size_t line = 1;
  const auto mark = [&out](std::size_t l) {
    if (l >= 1 && l <= out.code_lines.size()) out.code_lines[l - 1] = true;
  };
  while (pos < code.size()) {
    const char c = code[pos];
    if (c == '\n') {
      ++line;
      ++pos;
      continue;
    }
    if (line <= out.directive_lines.size() && out.directive_lines[line - 1]) {
      std::size_t end = code.find('\n', pos);
      pos = (end == std::string::npos) ? code.size() : end;
      continue;
    }
    if (is_hspace(c)) {
      ++pos;
      continue;
    }
    Token tok;
    tok.line = line;
    tok.offset = pos;
    if (is_ident_start(c)) {
      tok.kind = TokenKind::kIdentifier;
      std::size_t j = pos;
      while (j < code.size() && is_ident_char(code[j])) ++j;
      tok.text = code.substr(pos, j - pos);
      pos = j;
    } else if (is_digit(c) ||
               (c == '.' && pos + 1 < code.size() && is_digit(code[pos + 1]))) {
      tok.kind = TokenKind::kNumber;
      std::size_t j = pos;
      while (j < code.size()) {
        const char d = code[j];
        if (is_ident_char(d) || d == '.') {
          ++j;
        } else if (d == '\'' && j + 1 < code.size() &&
                   is_ident_char(code[j + 1])) {
          ++j;  // digit separator
        } else if ((d == '+' || d == '-') && j > pos &&
                   (code[j - 1] == 'e' || code[j - 1] == 'E' ||
                    code[j - 1] == 'p' || code[j - 1] == 'P')) {
          ++j;  // exponent sign
        } else {
          break;
        }
      }
      tok.text = code.substr(pos, j - pos);
      pos = j;
    } else if (c == '"') {
      tok.kind = TokenKind::kString;
      std::size_t close = code.find('"', pos + 1);
      if (close == std::string::npos) close = code.size() - 1;
      for (std::size_t j = pos; j < close; ++j) {
        if (code[j] == '\n') ++line;
      }
      pos = close + 1;
    } else if (c == '\'') {
      tok.kind = TokenKind::kChar;
      std::size_t close = code.find('\'', pos + 1);
      if (close == std::string::npos) close = code.size() - 1;
      for (std::size_t j = pos; j < close; ++j) {
        if (code[j] == '\n') ++line;
      }
      pos = close + 1;
    } else {
      tok.kind = TokenKind::kPunct;
      tok.text.assign(1, c);
      ++pos;
    }
    mark(tok.line);
    out.tokens.push_back(std::move(tok));
  }
}

}  // namespace

ScanResult scan_text(const std::string& text) {
  ScanResult out;
  out.code = text;
  blank_comments_and_literals(out);
  blank_disabled_regions(out);
  tokenize(out);
  return out;
}

}  // namespace pmiot::lint
