#include "core/report.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>

namespace collie::core {
namespace {

// Appends `s` to `out` with JSON string escapes applied.
void append_escaped(std::string& out, std::string_view s) {
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
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
}

}  // namespace

void JsonWriter::maybe_comma() {
  if (!needs_comma_.empty() && needs_comma_.back()) {
    out_ += ",";
  }
  if (!needs_comma_.empty()) needs_comma_.back() = true;
}

JsonWriter& JsonWriter::begin_object() {
  maybe_comma();
  out_ += "{";
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  assert(!needs_comma_.empty());
  needs_comma_.pop_back();
  out_ += "}";
  // The enclosing container has an element now: a following sibling needs a
  // comma.  (key() clears the flag for its value, so without this every
  // sibling after a nested container lost its separator.)
  if (!needs_comma_.empty()) needs_comma_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array(const std::string& k) {
  if (!k.empty()) {
    key(k);
  } else {
    maybe_comma();
  }
  out_ += "[";
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  assert(!needs_comma_.empty());
  needs_comma_.pop_back();
  out_ += "]";
  if (!needs_comma_.empty()) needs_comma_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  maybe_comma();
  out_ += '"';
  append_escaped(out_, k);
  out_ += "\":";
  if (!needs_comma_.empty()) needs_comma_.back() = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  maybe_comma();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string_view(v));
}

JsonWriter& JsonWriter::value(double v) {
  maybe_comma();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  // Shortest decimal that parses back to the same double.  Checkpointed MFS
  // bounds must reload bit-exact: the default 6-significant-digit printing
  // silently moved warm-start region boundaries (1048576 became 1.04858e+06
  // = 1048580), so workloads at a region's edge were re-probed or masked.
  // to_chars(general, p) is specified to print what printf("%.*g", p)
  // does; persistence_test pins the bytes against a stream-based oracle.
  //
  // No precision below the shortest round-trip digit count D (what
  // to_chars prints without a precision) can round-trip, so the search
  // starts at max(6, D) and prints what a search from 6 prints.  It still
  // confirms by parsing: next to a power of two the rounding gap below v is
  // half the one above, so the correctly rounded D-digit decimal can miss
  // even though some D-digit decimal round-trips, and one more digit is
  // needed.
  char buf[32];
  char* end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific)
          .ptr;
  int digits = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++digits;
  }
  for (int precision = std::max(6, digits); precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        precision)
              .ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  out_.append(buf, end);
  return *this;
}

JsonWriter& JsonWriter::value(i64 v) {
  maybe_comma();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  maybe_comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw_value(const std::string& json_text) {
  maybe_comma();
  out_ += json_text;
  return *this;
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

void workload_to_json(const Workload& w, JsonWriter* json) {
  json->begin_object();
  json->field("qp_type", to_string(w.qp_type));
  json->field("opcode", to_string(w.opcode));
  json->field("num_qps", w.num_qps);
  json->field("wqe_batch", w.wqe_batch);
  json->field("sge_per_wqe", w.sge_per_wqe);
  json->field("send_wq_depth", w.send_wq_depth);
  json->field("recv_wq_depth", w.recv_wq_depth);
  json->field("mrs_per_qp", w.mrs_per_qp);
  json->field("mr_size", static_cast<i64>(w.mr_size));
  json->field("mtu", static_cast<i64>(w.mtu));
  json->field("bidirectional", w.bidirectional);
  json->field("loopback", w.loopback);
  json->field("local_mem", topo::to_string(w.local_mem));
  json->field("remote_mem", topo::to_string(w.remote_mem));
  // The DCQCN knobs are emitted unconditionally: they are inert while
  // dcqcn is false, but the persistence layer round-trips workloads
  // losslessly (a checkpointed witness must reload bit-for-bit).
  json->field("dcqcn", w.dcqcn);
  json->field("dcqcn_rate_ai_mbps", w.dcqcn_rate_ai_mbps);
  json->field("dcqcn_g", w.dcqcn_g);
  json->begin_array("pattern");
  for (u64 s : w.pattern) json->value(static_cast<i64>(s));
  json->end_array();
  json->end_object();
}

}  // namespace collie::core
