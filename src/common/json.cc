#include "common/json.hh"

#include <cctype>
#include <cstdlib>

namespace trb
{

double
JsonFlat::number(const std::string &path, double def) const
{
    auto it = numbers.find(path);
    return it == numbers.end() ? def : it->second;
}

bool
JsonFlat::hasNumber(const std::string &path) const
{
    return numbers.find(path) != numbers.end();
}

std::string
JsonFlat::str(const std::string &path, const std::string &def) const
{
    auto it = strings.find(path);
    return it == strings.end() ? def : it->second;
}

namespace
{

/** Recursive-descent reader flattening into a JsonFlat. */
struct Reader
{
    const std::string &text;
    std::size_t pos = 0;
    JsonFlat &out;
    std::string error;

    Reader(const std::string &t, JsonFlat &o) : text(t), out(o) {}

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        return pos < text.size() ? text[pos] : '\0';
    }

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what + " at byte " + std::to_string(pos);
        return false;
    }

    bool
    expect(char c)
    {
        if (peek() != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    /** True if the next bytes are the literal @p word; consumes them. */
    bool
    literal(const char *word)
    {
        skipWs();
        std::size_t n = 0;
        while (word[n]) {
            if (pos + n >= text.size() || text[pos + n] != word[n])
                return false;
            ++n;
        }
        pos += n;
        return true;
    }

    bool
    parseString(std::string &s)
    {
        if (!expect('"'))
            return false;
        s.clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                s.push_back(c);
                continue;
            }
            if (pos >= text.size())
                return fail("unterminated escape");
            char esc = text[pos++];
            switch (esc) {
              case 'n': s.push_back('\n'); break;
              case 't': s.push_back('\t'); break;
              case 'r': s.push_back('\r'); break;
              case 'b': s.push_back('\b'); break;
              case 'f': s.push_back('\f'); break;
              case 'u':
                // Pass the four hex digits through verbatim; the
                // documents we read never emit multi-byte escapes for
                // anything we assert on.
                s.push_back('\\');
                s.push_back('u');
                break;
              default: s.push_back(esc); break;
            }
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos;   // closing quote
        return true;
    }

    /** Parse one value at @p path, inside @p depth open containers. */
    bool
    parseValue(const std::string &path, unsigned depth)
    {
        char c = peek();
        if ((c == '{' || c == '[') && depth == kMaxJsonDepth)
            return fail("nesting deeper than " +
                        std::to_string(kMaxJsonDepth) + " levels");
        if (c == '{') {
            ++pos;
            if (peek() == '}') {
                ++pos;
                return true;
            }
            do {
                std::string key;
                if (!parseString(key) || !expect(':'))
                    return false;
                if (!parseValue(path.empty() ? key : path + "/" + key,
                                depth + 1))
                    return false;
                c = peek();
                if (c == ',') {
                    ++pos;
                    continue;
                }
                break;
            } while (true);
            return expect('}');
        }
        if (c == '[') {
            ++pos;
            if (peek() == ']') {
                ++pos;
                return true;
            }
            std::size_t i = 0;
            do {
                if (!parseValue(path + "/" + std::to_string(i++),
                                depth + 1))
                    return false;
                c = peek();
                if (c == ',') {
                    ++pos;
                    continue;
                }
                break;
            } while (true);
            return expect(']');
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out.strings[path] = s;
            return true;
        }
        if (literal("true")) {
            out.numbers[path] = 1.0;
            return true;
        }
        if (literal("false")) {
            out.numbers[path] = 0.0;
            return true;
        }
        if (literal("null"))
            return true;
        // Number.
        std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
                text[pos] == 'e' || text[pos] == 'E'))
            ++pos;
        if (pos == start)
            return fail("expected a value");
        const std::string tok = text.substr(start, pos - start);
        char *end = nullptr;
        double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            return fail("malformed number '" + tok + "'");
        out.numbers[path] = v;
        return true;
    }
};

} // namespace

bool
parseJson(const std::string &text, JsonFlat &out, std::string *error)
{
    out = JsonFlat{};
    Reader reader(text, out);
    bool ok = reader.parseValue("", 0);
    reader.skipWs();
    if (ok && reader.pos != text.size())
        ok = reader.fail("trailing garbage");
    if (!ok && error)
        *error = reader.error;
    return ok;
}

} // namespace trb
