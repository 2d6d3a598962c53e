#include "value.h"

#include <cstdio>
#include <cstdlib>

namespace fusion::format {

PhysicalType
Value::type() const
{
    switch (v_.index()) {
      case 0: return PhysicalType::kInt32;
      case 1: return PhysicalType::kInt64;
      case 2: return PhysicalType::kDouble;
      default: return PhysicalType::kString;
    }
}

double
Value::numeric() const
{
    switch (v_.index()) {
      case 0: return std::get<int32_t>(v_);
      case 1: return static_cast<double>(std::get<int64_t>(v_));
      case 2: return std::get<double>(v_);
      default:
        FUSION_CHECK_MSG(false, "numeric() on string value");
        return 0.0;
    }
}

int
Value::compare(const Value &other) const
{
    PhysicalType a = type(), b = other.type();
    if (a == PhysicalType::kString || b == PhysicalType::kString) {
        FUSION_CHECK_MSG(a == b, "comparing string with non-string value");
        return asString().compare(other.asString());
    }
    // Numeric types compare through widening; int64 values that exceed
    // the 2^53 double mantissa do not occur in our datasets.
    double x = numeric(), y = other.numeric();
    if (x < y)
        return -1;
    if (x > y)
        return 1;
    return 0;
}

std::string
Value::toString() const
{
    char buf[64];
    switch (v_.index()) {
      case 0:
        std::snprintf(buf, sizeof(buf), "%d", std::get<int32_t>(v_));
        return buf;
      case 1:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(std::get<int64_t>(v_)));
        return buf;
      case 2: {
        // Shortest form that parses back to the same double: the text
        // keys memo caches and pushdown share keys, so two literals
        // that differ in any bit must never print alike.
        const double d = std::get<double>(v_);
        std::snprintf(buf, sizeof(buf), "%.15g", d);
        if (std::strtod(buf, nullptr) != d)
            std::snprintf(buf, sizeof(buf), "%.17g", d);
        return buf;
      }
      default:
        return std::get<std::string>(v_);
    }
}

void
Value::serialize(BinaryWriter &writer) const
{
    writer.putU8(static_cast<uint8_t>(type()));
    switch (v_.index()) {
      case 0: writer.putI32(std::get<int32_t>(v_)); break;
      case 1: writer.putI64(std::get<int64_t>(v_)); break;
      case 2: writer.putDouble(std::get<double>(v_)); break;
      default: writer.putString(std::get<std::string>(v_)); break;
    }
}

Result<Value>
Value::deserialize(BinaryReader &reader)
{
    auto tag = reader.getU8();
    if (!tag.isOk())
        return tag.status();
    switch (static_cast<PhysicalType>(tag.value())) {
      case PhysicalType::kInt32: {
        auto v = reader.getI32();
        if (!v.isOk())
            return v.status();
        return Value(v.value());
      }
      case PhysicalType::kInt64: {
        auto v = reader.getI64();
        if (!v.isOk())
            return v.status();
        return Value(v.value());
      }
      case PhysicalType::kDouble: {
        auto v = reader.getDouble();
        if (!v.isOk())
            return v.status();
        return Value(v.value());
      }
      case PhysicalType::kString: {
        auto v = reader.getString();
        if (!v.isOk())
            return v.status();
        return Value(std::move(v.value()));
      }
    }
    return Status::corruption("bad value type tag");
}

} // namespace fusion::format
