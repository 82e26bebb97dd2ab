#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace casp::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Json::set(std::string key, Json v) {
  kind_ = Kind::kObject;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

void write_double(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "0";  // JSON has no inf/nan; reports never produce them
    return;
  }
  // Shortest representation that round-trips; integral doubles keep a
  // trailing ".0" so the type survives a parse/dump cycle.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), d);
  std::string s(buf, res.ptr);
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos) {
    s += ".0";
  }
  out += s;
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const auto newline_indent = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInt: {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof(buf), int_);
      out.append(buf, res.ptr);
      break;
    }
    case Kind::kDouble:
      write_double(out, double_);
      break;
    case Kind::kString:
      out += '"';
      out += json_escape(string_);
      out += '"';
      break;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ',';
        newline_indent(depth + 1);
        items_[i].write(out, indent, depth + 1);
      }
      if (!items_.empty()) newline_indent(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        newline_indent(depth + 1);
        out += '"';
        out += json_escape(members_[i].first);
        out += pretty ? "\": " : "\":";
        members_[i].second.write(out, indent, depth + 1);
      }
      if (!members_.empty()) newline_indent(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::dump_pretty() const {
  std::string out;
  write(out, 2, 0);
  out += '\n';
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // Each level recurses: bound it, or a document of a few thousand
      // '[' overflows the stack instead of failing.
      if (++depth_ > kMaxDepth) fail("nesting deeper than 256 levels");
      Json v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return Json(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Json(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Json(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Json(nullptr);
    }
    return parse_number();
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad hex digit in \\u escape");
          }
          // The writer only emits \u for control characters; decode the
          // BMP subset as UTF-8 and reject surrogates.
          if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate escapes unsupported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t v = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (res.ec == std::errc() && res.ptr == tok.data() + tok.size())
        return Json(v);
    }
    double d = 0.0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size())
      fail("malformed number");
    return Json(d);
  }

  static constexpr int kMaxDepth = 256;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace casp::obs
