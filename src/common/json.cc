#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ramp
{

namespace
{

/** Cursor over the document with position-tagged failure. */
struct Parser
{
    std::string_view text;
    std::size_t pos = 0;
    std::string error;

    bool fail(const std::string &what)
    {
        if (error.empty())
            error = what + " at offset " + std::to_string(pos);
        return false;
    }

    void skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool atEnd()
    {
        skipWs();
        return pos >= text.size();
    }

    char peek()
    {
        skipWs();
        return pos < text.size() ? text[pos] : '\0';
    }

    bool consume(char c)
    {
        if (peek() != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("unrecognised token");
        pos += word.size();
        return true;
    }

    /** Parse exactly four hex digits of a \\uXXXX escape. */
    bool hexQuad(unsigned long &code)
    {
        if (pos + 4 > text.size())
            return fail("truncated \\u escape");
        code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text[pos + i];
            unsigned digit;
            if (c >= '0' && c <= '9')
                digit = static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                digit = static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad \\u escape");
            code = (code << 4) | digit;
        }
        pos += 4;
        return true;
    }

    /** Append a Unicode scalar value as UTF-8. */
    static void appendUtf8(std::string &out, unsigned long code)
    {
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(
                static_cast<char>(0x80 | (code & 0x3f)));
        } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(
                static_cast<char>(0x80 | (code & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xf0 | (code >> 18)));
            out.push_back(
                static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
            out.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(
                static_cast<char>(0x80 | (code & 0x3f)));
        }
    }

    bool parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= text.size())
                break;
            const char esc = text[pos++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                  unsigned long code = 0;
                  if (!hexQuad(code))
                      return false;
                  if (code >= 0xd800 && code <= 0xdbff) {
                      // High surrogate: a low surrogate must
                      // follow for a valid supplementary-plane
                      // character.
                      if (pos + 2 > text.size() ||
                          text[pos] != '\\' || text[pos + 1] != 'u')
                          return fail("lone high surrogate");
                      pos += 2;
                      unsigned long low = 0;
                      if (!hexQuad(low))
                          return false;
                      if (low < 0xdc00 || low > 0xdfff)
                          return fail("bad low surrogate");
                      code = 0x10000 + ((code - 0xd800) << 10) +
                             (low - 0xdc00);
                  } else if (code >= 0xdc00 && code <= 0xdfff) {
                      return fail("lone low surrogate");
                  }
                  appendUtf8(out, code);
                  break;
              }
              default:
                return fail("bad escape character");
            }
        }
        return fail("unterminated string");
    }

    bool parseValue(JsonValue &out)
    {
        switch (peek()) {
          case '{': {
              out.kind = JsonValue::Kind::Object;
              ++pos;
              if (peek() == '}') {
                  ++pos;
                  return true;
              }
              while (true) {
                  std::string key;
                  if (!parseString(key))
                      return false;
                  if (!consume(':'))
                      return false;
                  JsonValue member;
                  if (!parseValue(member))
                      return false;
                  out.object.emplace(std::move(key),
                                     std::move(member));
                  if (peek() == ',') {
                      ++pos;
                      continue;
                  }
                  return consume('}');
              }
          }
          case '[': {
              out.kind = JsonValue::Kind::Array;
              ++pos;
              if (peek() == ']') {
                  ++pos;
                  return true;
              }
              while (true) {
                  JsonValue element;
                  if (!parseValue(element))
                      return false;
                  out.array.push_back(std::move(element));
                  if (peek() == ',') {
                      ++pos;
                      continue;
                  }
                  return consume(']');
              }
          }
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
          default: {
              skipWs();
              // Copy the token: string_views are not guaranteed
              // null-terminated, which strtod requires.
              const std::string chunk(text.substr(pos, 64));
              char *end = nullptr;
              const double value =
                  std::strtod(chunk.c_str(), &end);
              if (end == chunk.c_str())
                  return fail("unrecognised token");
              out.kind = JsonValue::Kind::Number;
              out.number = value;
              pos += static_cast<std::size_t>(end - chunk.c_str());
              return true;
          }
        }
    }
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

double
JsonValue::numberOr(const std::string &key, double fallback) const
{
    const JsonValue *member = find(key);
    return member != nullptr && member->isNumber() ? member->number
                                                   : fallback;
}

std::string
JsonValue::stringOr(const std::string &key,
                    const std::string &fallback) const
{
    const JsonValue *member = find(key);
    return member != nullptr && member->isString() ? member->string
                                                   : fallback;
}

bool
JsonValue::boolOr(const std::string &key, bool fallback) const
{
    const JsonValue *member = find(key);
    return member != nullptr && member->kind == Kind::Bool
               ? member->boolean
               : fallback;
}

std::uint64_t
JsonValue::uintOr(const std::string &key, std::uint64_t fallback) const
{
    const JsonValue *member = find(key);
    // Ids are small in practice (double-exact); the UINT64_MAX
    // sentinels only appear for absent fields, which writers omit.
    return member != nullptr && member->isNumber()
               ? static_cast<std::uint64_t>(member->number)
               : fallback;
}

bool
parseJson(std::string_view text, JsonValue &out, std::string &error)
{
    Parser parser{text, 0, {}};
    out = JsonValue{};
    if (!parser.parseValue(out)) {
        error = parser.error.empty() ? "malformed JSON"
                                     : parser.error;
        return false;
    }
    if (!parser.atEnd()) {
        error = "trailing garbage at offset " +
                std::to_string(parser.pos);
        return false;
    }
    return true;
}

bool
parseJsonFile(const std::string &path, JsonValue &out,
              std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    if (!parseJson(text, out, error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    std::ostringstream out;
    out.precision(17);
    out << value;
    return out.str();
}

bool
readJsonl(const std::string &path,
          std::initializer_list<std::string_view> schemas,
          const char *kind, bool ignore_partial_tail,
          JsonValue &header,
          const std::function<bool(const JsonValue &, std::string &)>
              &record,
          std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string content = buffer.str();
    if (ignore_partial_tail && !content.empty() &&
        content.back() != '\n') {
        // A live tail: drop the torn line; the next read parses it
        // once its newline has arrived.
        const std::size_t last_newline = content.rfind('\n');
        content.resize(last_newline == std::string::npos
                           ? 0
                           : last_newline + 1);
    }
    std::istringstream lines(content);
    std::string line;
    std::size_t line_no = 0;
    bool saw_header = false;
    while (std::getline(lines, line)) {
        ++line_no;
        if (line.empty())
            continue;
        JsonValue value;
        if (!parseJson(line, value, error)) {
            error = path + ":" + std::to_string(line_no) + ": " +
                    error;
            return false;
        }
        if (saw_header) {
            std::string why;
            if (!record(value, why)) {
                error = path + ":" + std::to_string(line_no) + ": " +
                        why;
                return false;
            }
            continue;
        }
        const std::string schema = value.stringOr("schema", "");
        std::string accepted;
        bool known = false;
        for (const std::string_view name : schemas) {
            accepted += (accepted.empty() ? "" : " / ");
            accepted += name;
            known = known || schema == name;
        }
        if (!known) {
            error = path + ": not a " + accepted + " file (schema '" +
                    schema + "')";
            return false;
        }
        header = std::move(value);
        saw_header = true;
    }
    if (!saw_header) {
        error = path + ": empty " + kind + " file (no header line)";
        return false;
    }
    return true;
}

} // namespace ramp
