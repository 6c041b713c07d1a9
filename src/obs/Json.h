#pragma once
/// \file Json.h
/// Minimal JSON support for the observability layer: a streaming writer
/// (used by the metrics exporter and the Chrome trace exporter) and a small
/// recursive-descent parser (used by tests and tools/walb_tracecat to
/// validate emitted files). Deliberately tiny — no external dependency, no
/// full spec coverage beyond what the framework emits: objects, arrays,
/// strings, numbers, booleans, null.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/Debug.h"

namespace walb::obs::json {

// ---- streaming writer ------------------------------------------------------

/// Emits syntactically valid JSON to an ostream. The caller drives the
/// structure with beginObject/beginArray/key/value calls; the writer tracks
/// nesting and inserts commas. Misuse (e.g. a value without a key inside an
/// object) trips an assertion in debug builds.
class Writer {
public:
    explicit Writer(std::ostream& os, bool pretty = true) : os_(os), pretty_(pretty) {}

    Writer& beginObject() { return open('{', Frame::Object); }
    Writer& endObject() { return close('}', Frame::Object); }
    Writer& beginArray() { return open('[', Frame::Array); }
    Writer& endArray() { return close(']', Frame::Array); }

    /// Key of the next value inside the current object.
    Writer& key(const std::string& k);

    Writer& value(const std::string& v);
    Writer& value(const char* v) { return value(std::string(v)); }
    Writer& value(double v);
    Writer& value(std::uint64_t v);
    Writer& value(std::int64_t v);
    Writer& value(bool v);
    /// Any other integral type routes through the 64-bit overloads.
    template <typename T>
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool> &&
                 !std::is_same_v<T, std::uint64_t> && !std::is_same_v<T, std::int64_t>)
    Writer& value(T v) {
        if constexpr (std::is_signed_v<T>) return value(std::int64_t(v));
        else return value(std::uint64_t(v));
    }

    /// Shorthand: key + scalar value.
    template <typename T>
    Writer& kv(const std::string& k, const T& v) {
        key(k);
        return value(v);
    }

    /// Depth of open containers (0 when the document is complete).
    std::size_t depth() const { return stack_.size(); }

    static std::string escape(const std::string& s);

private:
    enum class Frame { Object, Array };

    Writer& open(char c, Frame f);
    Writer& close(char c, Frame f);
    void separator();
    void newlineIndent();

    std::ostream& os_;
    bool pretty_;
    std::vector<Frame> stack_;
    std::vector<bool> firstInFrame_;
    bool keyPending_ = false;
};

// ---- parsed value tree -----------------------------------------------------

/// An integral JSON number kept exact: 64-bit digests and bit patterns do
/// not survive a round trip through double. Zero is never negative.
struct Integer {
    bool negative = false;
    std::uint64_t magnitude = 0;

    bool operator==(const Integer&) const = default;
    bool operator<(const Integer& o) const {
        if (negative != o.negative) return negative;
        return negative ? magnitude > o.magnitude : magnitude < o.magnitude;
    }
};

/// Parsed JSON value. Numbers are stored as double; an integral literal
/// that fits 64 bits also keeps its exact value (isInteger()).
class Value {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isObject() const { return type_ == Type::Object; }
    bool isArray() const { return type_ == Type::Array; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isInteger() const { return type_ == Type::Number && integral_; }

    double number() const {
        WALB_ASSERT(type_ == Type::Number, "JSON value is not a number");
        return num_;
    }
    Integer integer() const {
        WALB_ASSERT(isInteger(), "JSON value is not an integer");
        return int_;
    }
    bool boolean() const {
        WALB_ASSERT(type_ == Type::Bool, "JSON value is not a bool");
        return num_ != 0.0;
    }
    const std::string& str() const {
        WALB_ASSERT(type_ == Type::String, "JSON value is not a string");
        return str_;
    }
    const std::vector<Value>& array() const {
        WALB_ASSERT(type_ == Type::Array, "JSON value is not an array");
        return arr_;
    }
    const std::map<std::string, Value>& object() const {
        WALB_ASSERT(type_ == Type::Object, "JSON value is not an object");
        return obj_;
    }

    /// Member lookup; returns nullptr when absent or not an object.
    const Value* find(const std::string& k) const {
        if (type_ != Type::Object) return nullptr;
        auto it = obj_.find(k);
        return it == obj_.end() ? nullptr : &it->second;
    }
    const Value& at(const std::string& k) const {
        const Value* v = find(k);
        WALB_ASSERT(v, "missing JSON key '" << k << "'");
        return *v;
    }

    static Value makeNull() { return Value(); }
    static Value makeBool(bool b) {
        Value v;
        v.type_ = Type::Bool;
        v.num_ = b ? 1.0 : 0.0;
        return v;
    }
    static Value makeNumber(double d) {
        Value v;
        v.type_ = Type::Number;
        v.num_ = d;
        return v;
    }
    static Value makeInteger(Integer i) {
        Value v = makeNumber(i.negative ? -double(i.magnitude) : double(i.magnitude));
        v.integral_ = true;
        v.int_ = i;
        return v;
    }
    static Value makeString(std::string s) {
        Value v;
        v.type_ = Type::String;
        v.str_ = std::move(s);
        return v;
    }
    static Value makeArray(std::vector<Value> a) {
        Value v;
        v.type_ = Type::Array;
        v.arr_ = std::move(a);
        return v;
    }
    static Value makeObject(std::map<std::string, Value> o) {
        Value v;
        v.type_ = Type::Object;
        v.obj_ = std::move(o);
        return v;
    }

private:
    Type type_ = Type::Null;
    double num_ = 0.0;
    bool integral_ = false;
    Integer int_;
    std::string str_;
    std::vector<Value> arr_;
    std::map<std::string, Value> obj_;
};

/// Parses a complete JSON document. On success returns the root value and
/// sets ok = true; on malformed input returns null and sets ok = false with
/// a human-readable message in error.
Value parse(const std::string& text, bool& ok, std::string& error);

/// Convenience overload that aborts on malformed input (tests/tools that
/// parse files the framework itself just wrote).
Value parseOrAbort(const std::string& text);

} // namespace walb::obs::json
