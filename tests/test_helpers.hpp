/**
 * @file
 * Shared helpers for the dlis test suite.
 */

#ifndef DLIS_TESTS_TEST_HELPERS_HPP
#define DLIS_TESTS_TEST_HELPERS_HPP

#include <gtest/gtest.h>

#include <cctype>
#include <string_view>

#include "core/rng.hpp"
#include "core/tensor.hpp"

namespace dlis::test {

/**
 * Minimal JSON validity checker (objects, arrays, strings, numbers,
 * literals) — enough to prove emitted traces / reports / status
 * snapshots parse without pulling in a JSON dependency. Strings must
 * not hold raw control characters (RFC 8259), so unescaped output
 * fails the check.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(std::string_view text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    string()
    {
        if (!consume('"'))
            return false;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            // RFC 8259: control characters must be escaped.
            if (static_cast<unsigned char>(text_[pos_]) < 0x20)
                return false;
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
            }
            ++pos_;
        }
        return consume('"');
    }

    bool
    number()
    {
        const size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    value()
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            if (consume('}'))
                return true;
            do {
                if (!string() || !consume(':') || !value())
                    return false;
            } while (consume(','));
            return consume('}');
        }
        if (c == '[') {
            ++pos_;
            if (consume(']'))
                return true;
            do {
                if (!value())
                    return false;
            } while (consume(','));
            return consume(']');
        }
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    std::string_view text_;
    size_t pos_ = 0;
};

/** Fill a tensor with reproducible N(0,1) values. */
inline Tensor
randomTensor(Shape shape, uint64_t seed)
{
    Rng rng(seed);
    Tensor t(std::move(shape));
    t.fillNormal(rng, 0.0f, 1.0f);
    return t;
}

/** Expect two tensors elementwise-close. */
inline void
expectClose(const Tensor &a, const Tensor &b, float tol = 1e-4f)
{
    ASSERT_EQ(a.shape().dims(), b.shape().dims());
    EXPECT_LE(a.maxAbsDiff(b), tol);
}

} // namespace dlis::test

#endif // DLIS_TESTS_TEST_HELPERS_HPP
