#include "obs/Json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace walb::obs::json {

// ---- writer ----------------------------------------------------------------

std::string Writer::escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

void Writer::newlineIndent() {
    if (!pretty_) return;
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void Writer::separator() {
    if (keyPending_) return; // value completes a "key": pair, no comma here
    if (!stack_.empty()) {
        if (!firstInFrame_.back()) os_ << ',';
        firstInFrame_.back() = false;
        newlineIndent();
    }
}

Writer& Writer::open(char c, Frame f) {
    WALB_DASSERT(stack_.empty() || stack_.back() == Frame::Array || keyPending_);
    separator();
    keyPending_ = false;
    os_ << c;
    stack_.push_back(f);
    firstInFrame_.push_back(true);
    return *this;
}

Writer& Writer::close(char c, Frame f) {
    WALB_ASSERT(!stack_.empty() && stack_.back() == f, "mismatched JSON close");
    WALB_DASSERT(!keyPending_);
    const bool empty = firstInFrame_.back();
    stack_.pop_back();
    firstInFrame_.pop_back();
    if (!empty) newlineIndent();
    os_ << c;
    return *this;
}

Writer& Writer::key(const std::string& k) {
    WALB_ASSERT(!stack_.empty() && stack_.back() == Frame::Object,
                "JSON key outside an object");
    WALB_DASSERT(!keyPending_);
    separator();
    os_ << '"' << escape(k) << "\":";
    if (pretty_) os_ << ' ';
    keyPending_ = true;
    return *this;
}

Writer& Writer::value(const std::string& v) {
    WALB_DASSERT(stack_.empty() || stack_.back() == Frame::Array || keyPending_);
    separator();
    keyPending_ = false;
    os_ << '"' << escape(v) << '"';
    return *this;
}

Writer& Writer::value(double v) {
    WALB_DASSERT(stack_.empty() || stack_.back() == Frame::Array || keyPending_);
    separator();
    keyPending_ = false;
    if (!std::isfinite(v)) {
        os_ << "null"; // JSON has no inf/nan
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os_ << buf;
    return *this;
}

Writer& Writer::value(std::uint64_t v) {
    separator();
    keyPending_ = false;
    os_ << v;
    return *this;
}

Writer& Writer::value(std::int64_t v) {
    separator();
    keyPending_ = false;
    os_ << v;
    return *this;
}

Writer& Writer::value(bool v) {
    separator();
    keyPending_ = false;
    os_ << (v ? "true" : "false");
    return *this;
}

// ---- parser ----------------------------------------------------------------

namespace {

class Parser {
public:
    Parser(const std::string& text, bool& ok, std::string& error)
        : s_(text), ok_(ok), error_(error) {}

    Value run() {
        ok_ = true;
        error_.clear();
        Value v = parseValue();
        skipWs();
        if (ok_ && pos_ != s_.size()) fail("trailing characters after JSON document");
        return ok_ ? v : Value();
    }

private:
    void fail(const std::string& msg) {
        if (!ok_) return; // keep the first error
        ok_ = false;
        error_ = msg + " at offset " + std::to_string(pos_);
    }

    void skipWs() {
        while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }

    bool consume(char c) {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool literal(const char* lit) {
        const std::size_t n = std::string(lit).size();
        if (s_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Value parseValue() {
        skipWs();
        if (pos_ >= s_.size()) {
            fail("unexpected end of input");
            return Value();
        }
        const char c = s_[pos_];
        if (c == '{') return parseObject();
        if (c == '[') return parseArray();
        if (c == '"') return Value::makeString(parseString());
        if (c == 't') {
            if (literal("true")) return Value::makeBool(true);
            fail("invalid literal");
            return Value();
        }
        if (c == 'f') {
            if (literal("false")) return Value::makeBool(false);
            fail("invalid literal");
            return Value();
        }
        if (c == 'n') {
            if (literal("null")) return Value::makeNull();
            fail("invalid literal");
            return Value();
        }
        return parseNumber();
    }

    Value parseObject() {
        consume('{');
        std::map<std::string, Value> members;
        skipWs();
        if (consume('}')) return Value::makeObject(std::move(members));
        while (ok_) {
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != '"') {
                fail("expected object key string");
                break;
            }
            std::string key = parseString();
            if (!consume(':')) {
                fail("expected ':' after object key");
                break;
            }
            members[key] = parseValue();
            if (consume(',')) continue;
            if (consume('}')) break;
            fail("expected ',' or '}' in object");
        }
        return Value::makeObject(std::move(members));
    }

    Value parseArray() {
        consume('[');
        std::vector<Value> items;
        skipWs();
        if (consume(']')) return Value::makeArray(std::move(items));
        while (ok_) {
            items.push_back(parseValue());
            if (consume(',')) continue;
            if (consume(']')) break;
            fail("expected ',' or ']' in array");
        }
        return Value::makeArray(std::move(items));
    }

    std::string parseString() {
        std::string out;
        ++pos_; // opening quote
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"') return out;
            if (c == '\\') {
                if (pos_ >= s_.size()) break;
                const char e = s_[pos_++];
                switch (e) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'u': {
                        if (pos_ + 4 > s_.size()) {
                            fail("truncated \\u escape");
                            return out;
                        }
                        const unsigned code =
                            unsigned(std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16));
                        pos_ += 4;
                        // The framework only emits ASCII control escapes;
                        // map the BMP code point naively to one byte when it
                        // fits, '?' otherwise.
                        out += (code < 0x80) ? char(code) : '?';
                        break;
                    }
                    default: fail("invalid escape sequence"); return out;
                }
            } else {
                out += c;
            }
        }
        fail("unterminated string");
        return out;
    }

    Value parseNumber() {
        const std::size_t start = pos_;
        const bool negative = pos_ < s_.size() && s_[pos_] == '-';
        if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
        const std::size_t intStart = pos_;
        bool digits = false;
        auto eatDigits = [&] {
            while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
                ++pos_;
                digits = true;
            }
        };
        eatDigits();
        const std::size_t intEnd = pos_;
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            eatDigits();
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
            eatDigits();
        }
        if (!digits) {
            fail("invalid number");
            return Value();
        }
        Integer i;
        const auto exact = std::from_chars(s_.data() + intStart, s_.data() + intEnd,
                                           i.magnitude);
        if (intEnd == pos_ && exact.ec == std::errc()) {
            i.negative = negative && i.magnitude != 0;
            return Value::makeInteger(i);
        }
        return Value::makeNumber(std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr));
    }

    const std::string& s_;
    bool& ok_;
    std::string& error_;
    std::size_t pos_ = 0;
};

} // namespace

Value parse(const std::string& text, bool& ok, std::string& error) {
    return Parser(text, ok, error).run();
}

Value parseOrAbort(const std::string& text) {
    bool ok = false;
    std::string error;
    Value v = parse(text, ok, error);
    WALB_ASSERT(ok, "JSON parse failed: " << error);
    return v;
}

} // namespace walb::obs::json
