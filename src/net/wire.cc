#include "net/wire.h"

#include <array>
#include <climits>
#include <cstring>

#include "common/metrics.h"

namespace licm::net {

namespace {

struct WireMetrics {
  metrics::Counter* frames_encoded;
  metrics::Counter* frames_decoded;
  metrics::Counter* frames_rejected;

  static const WireMetrics& Get() {
    static const WireMetrics m;
    return m;
  }

 private:
  WireMetrics() {
    auto& reg = metrics::MetricsRegistry::Default();
    frames_encoded = reg.GetCounter("licm_wire_frames_encoded_total");
    frames_decoded = reg.GetCounter("licm_wire_frames_decoded_total");
    frames_rejected = reg.GetCounter("licm_wire_frames_rejected_total");
  }
};

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// Request payload field numbers. Wiretypes: 0 varint (zigzag where the
// field is signed), 1 length-prefixed bytes, 2 fixed64.
enum Field : uint32_t {
  kId = 1,          // zigzag (default -1)
  kOp = 2,          // bytes
  kInstance = 3,    // bytes
  kQnum = 4,        // zigzag (default 1)
  kDeadlineMs = 5,  // fixed64 double (default -1.0)
  kMcWorlds = 6,    // zigzag
  kSeed = 7,        // plain varint
  kAction = 8,      // bytes
  kRelation = 9,    // bytes
  kRow = 10,        // bytes
  kMaybe = 11,      // varint bool
  kCindex = 12,     // zigzag (default -1)
  kCop = 13,        // bytes
  kRhs = 14,        // zigzag
  kVar = 15,        // zigzag (default -1)
  kValue = 16,      // zigzag
  kSpec = 17,       // bytes
  kReplace = 18,    // varint bool
};

enum WireType : uint32_t { kVarint = 0, kBytes = 1, kFixed64 = 2 };

void AppendTag(std::string* out, uint32_t field, uint32_t wiretype) {
  AppendVarint(out, (static_cast<uint64_t>(field) << 2) | wiretype);
}

void AppendSigned(std::string* out, uint32_t field, int64_t v) {
  AppendTag(out, field, kVarint);
  AppendVarint(out, ZigzagEncode(v));
}

void AppendUnsigned(std::string* out, uint32_t field, uint64_t v) {
  AppendTag(out, field, kVarint);
  AppendVarint(out, v);
}

void AppendBytes(std::string* out, uint32_t field, const std::string& s) {
  AppendTag(out, field, kBytes);
  AppendVarint(out, s.size());
  out->append(s);
}

void AppendDouble(std::string* out, uint32_t field, double v) {
  AppendTag(out, field, kFixed64);
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

/// Reads one LEB128 varint from buf[*pos..); false on truncation or a
/// value wider than 64 bits.
bool ReadVarint(const std::string& buf, size_t* pos, uint64_t* out) {
  uint64_t value = 0;
  int shift = 0;
  while (*pos < buf.size()) {
    const uint8_t byte = static_cast<uint8_t>(buf[*pos]);
    ++*pos;
    if (shift >= 64 || (shift == 63 && (byte & 0x7E) != 0)) return false;
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = value;
      return true;
    }
    shift += 7;
  }
  return false;
}

bool ReadFixed64(const std::string& buf, size_t* pos, uint64_t* out) {
  if (buf.size() - *pos < 8) return false;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(buf[*pos + i]))
            << (8 * i);
  }
  *pos += 8;
  *out = bits;
  return true;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void AppendVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

std::string EncodeRequestPayload(const service::WireRequest& req) {
  std::string out;
  if (req.id != -1) AppendSigned(&out, kId, req.id);
  if (!req.op.empty()) AppendBytes(&out, kOp, req.op);
  if (!req.instance.empty()) AppendBytes(&out, kInstance, req.instance);
  if (req.qnum != 1) AppendSigned(&out, kQnum, req.qnum);
  if (req.deadline_ms != -1.0) AppendDouble(&out, kDeadlineMs, req.deadline_ms);
  if (req.mc_worlds != 0) AppendSigned(&out, kMcWorlds, req.mc_worlds);
  if (req.seed != 0) AppendUnsigned(&out, kSeed, req.seed);
  if (!req.action.empty()) AppendBytes(&out, kAction, req.action);
  if (!req.relation.empty()) AppendBytes(&out, kRelation, req.relation);
  if (!req.row.empty()) AppendBytes(&out, kRow, req.row);
  if (req.maybe) AppendUnsigned(&out, kMaybe, 1);
  if (req.cindex != -1) AppendSigned(&out, kCindex, req.cindex);
  if (!req.cop.empty()) AppendBytes(&out, kCop, req.cop);
  if (req.rhs != 0) AppendSigned(&out, kRhs, req.rhs);
  if (req.var != -1) AppendSigned(&out, kVar, req.var);
  if (req.value != 0) AppendSigned(&out, kValue, req.value);
  if (!req.spec.empty()) AppendBytes(&out, kSpec, req.spec);
  if (req.replace) AppendUnsigned(&out, kReplace, 1);
  return out;
}

Result<service::WireRequest> DecodeRequestPayload(const std::string& payload) {
  service::WireRequest req;
  size_t pos = 0;
  while (pos < payload.size()) {
    uint64_t tag;
    if (!ReadVarint(payload, &pos, &tag)) {
      return Status::InvalidArgument("binary request: truncated field tag");
    }
    const uint32_t field = static_cast<uint32_t>(tag >> 2);
    const uint32_t wiretype = static_cast<uint32_t>(tag & 0x3);

    uint64_t uval = 0;
    std::string sval;
    if (wiretype == kVarint || wiretype == kFixed64) {
      const bool ok = wiretype == kVarint ? ReadVarint(payload, &pos, &uval)
                                          : ReadFixed64(payload, &pos, &uval);
      if (!ok) {
        return Status::InvalidArgument("binary request: truncated field " +
                                       std::to_string(field));
      }
    } else if (wiretype == kBytes) {
      uint64_t len;
      if (!ReadVarint(payload, &pos, &len) || payload.size() - pos < len) {
        return Status::InvalidArgument("binary request: truncated bytes in field " +
                                       std::to_string(field));
      }
      sval = payload.substr(pos, len);
      pos += len;
    } else {
      return Status::InvalidArgument("binary request: unknown wiretype " +
                                     std::to_string(wiretype));
    }

    switch (field) {
      case kId: req.id = ZigzagDecode(uval); break;
      case kOp: req.op = std::move(sval); break;
      case kInstance: req.instance = std::move(sval); break;
      case kQnum: {
        LICM_ASSIGN_OR_RETURN(
            req.qnum,
            service::NarrowIntField("qnum", ZigzagDecode(uval), INT_MIN));
        break;
      }
      case kDeadlineMs: {
        double d;
        std::memcpy(&d, &uval, sizeof(d));
        req.deadline_ms = d;
        break;
      }
      case kMcWorlds: {
        LICM_ASSIGN_OR_RETURN(
            req.mc_worlds,
            service::NarrowIntField("mc_worlds", ZigzagDecode(uval), 0));
        break;
      }
      case kSeed: {
        LICM_ASSIGN_OR_RETURN(req.seed, service::NarrowSeedField(uval));
        break;
      }
      case kAction: req.action = std::move(sval); break;
      case kRelation: req.relation = std::move(sval); break;
      case kRow: req.row = std::move(sval); break;
      case kMaybe: req.maybe = uval != 0; break;
      case kCindex: req.cindex = ZigzagDecode(uval); break;
      case kCop: req.cop = std::move(sval); break;
      case kRhs: req.rhs = ZigzagDecode(uval); break;
      case kVar: req.var = ZigzagDecode(uval); break;
      case kValue: req.value = ZigzagDecode(uval); break;
      case kSpec: req.spec = std::move(sval); break;
      case kReplace: req.replace = uval != 0; break;
      default: break;  // unknown field: skipped (forward compatibility)
    }
  }
  return req;
}

std::string EncodeFrame(uint8_t type, const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 16);
  out.push_back(static_cast<char>(kWireMagic));
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(type));
  AppendVarint(&out, payload.size());
  out.append(payload);
  // CRC covers version..payload: everything whose corruption the magic
  // byte can't catch.
  const uint32_t crc = Crc32(out.data() + 1, out.size() - 1);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  WireMetrics::Get().frames_encoded->Increment();
  return out;
}

Result<bool> TryDecodeFrame(const std::string& buf, size_t* consumed,
                            Frame* frame) {
  *consumed = 0;
  if (buf.empty()) return false;
  if (static_cast<uint8_t>(buf[0]) != kWireMagic) {
    WireMetrics::Get().frames_rejected->Increment();
    return Status::InvalidArgument("wire: bad frame magic");
  }
  if (buf.size() < 2) return false;
  if (static_cast<uint8_t>(buf[1]) != kWireVersion) {
    WireMetrics::Get().frames_rejected->Increment();
    return Status::InvalidArgument(
        "wire: unsupported protocol version " +
        std::to_string(static_cast<unsigned>(static_cast<uint8_t>(buf[1]))));
  }
  if (buf.size() < 3) return false;
  const uint8_t type = static_cast<uint8_t>(buf[2]);
  if (type != kFrameRequest && type != kFrameResponse) {
    WireMetrics::Get().frames_rejected->Increment();
    return Status::InvalidArgument("wire: unknown frame type " +
                                   std::to_string(static_cast<unsigned>(type)));
  }

  size_t pos = 3;
  uint64_t len = 0;
  // Distinguish "varint truncated by buffer end" (need more bytes) from
  // a malformed varint inside a complete prefix.
  {
    uint64_t value = 0;
    int shift = 0;
    bool done = false;
    while (pos < buf.size()) {
      const uint8_t byte = static_cast<uint8_t>(buf[pos]);
      ++pos;
      if (shift > 28) {  // 5 bytes cap the length at 2^35 > kMaxFramePayload
        WireMetrics::Get().frames_rejected->Increment();
        return Status::InvalidArgument("wire: oversized length varint");
      }
      value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        done = true;
        break;
      }
      shift += 7;
    }
    if (!done) return false;
    len = value;
  }
  if (len > kMaxFramePayload) {
    WireMetrics::Get().frames_rejected->Increment();
    return Status::InvalidArgument("wire: frame payload " +
                                   std::to_string(len) + " exceeds limit");
  }
  if (buf.size() - pos < len + 4) return false;

  const uint32_t expect = Crc32(buf.data() + 1, pos - 1 + len);
  uint32_t got = 0;
  for (int i = 0; i < 4; ++i) {
    got |= static_cast<uint32_t>(static_cast<uint8_t>(buf[pos + len + i]))
           << (8 * i);
  }
  if (expect != got) {
    WireMetrics::Get().frames_rejected->Increment();
    return Status::InvalidArgument("wire: frame CRC mismatch");
  }

  frame->type = type;
  frame->payload = buf.substr(pos, len);
  *consumed = pos + len + 4;
  WireMetrics::Get().frames_decoded->Increment();
  return true;
}

}  // namespace licm::net
