#include <gtest/gtest.h>

#include <limits>

#include "core/report.h"

namespace collie::core {
namespace {

TEST(Json, BasicDocument) {
  JsonWriter j;
  j.begin_object()
      .field("a", 1)
      .field("b", "x\"y")
      .field("c", true)
      .begin_array("xs");
  j.value(1).value(2.5);
  j.end_array().end_object();
  EXPECT_EQ(j.str(), R"({"a":1,"b":"x\"y","c":true,"xs":[1,2.5]})");
}

// Regression: closing a nested container must re-arm the parent's comma —
// every sibling that followed an object/array used to lose its separator,
// producing invalid documents like `{"xs":[]"b":2}`.
TEST(Json, SiblingAfterNestedContainerGetsComma) {
  JsonWriter j;
  j.begin_object();
  j.begin_array("xs").end_array();
  j.field("b", 2);
  j.key("o");
  j.begin_object().field("c", 3).end_object();
  j.begin_array("ys");
  j.value(1);
  j.end_array();
  j.field("d", 4).end_object();
  EXPECT_EQ(j.str(), R"({"xs":[],"b":2,"o":{"c":3},"ys":[1],"d":4})");
}

TEST(Json, EscapesControlCharacters) {
  EXPECT_EQ(JsonWriter::escape("a\nb\\c\"d"), "a\\nb\\\\c\\\"d");
}

TEST(Json, NonFiniteBecomesNull) {
  JsonWriter j;
  j.begin_object().field("inf", std::numeric_limits<double>::infinity());
  j.end_object();
  EXPECT_EQ(j.str(), R"({"inf":null})");
}

TEST(Report, WorkloadJsonHasAllDimensions) {
  Workload w;
  w.pattern = {64 * KiB, 128};
  w.bidirectional = true;
  JsonWriter j;
  workload_to_json(w, &j);
  const std::string out = j.str();
  for (const char* key :
       {"qp_type", "opcode", "num_qps", "wqe_batch", "sge_per_wqe",
        "send_wq_depth", "recv_wq_depth", "mrs_per_qp", "mr_size", "mtu",
        "bidirectional", "loopback", "local_mem", "remote_mem", "pattern"}) {
    EXPECT_NE(out.find(key), std::string::npos) << key;
  }
  EXPECT_NE(out.find("65536,128"), std::string::npos);
}

TEST(Json, RawValueSplicesWithCommaHandling) {
  JsonWriter json;
  json.begin_object();
  json.field("a", 1);
  json.key("embedded");
  json.raw_value("{\"x\":[1,2]}");
  json.field("b", 2);
  json.begin_array("list");
  json.raw_value("3");
  json.raw_value("{\"y\":4}");
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"a\":1,\"embedded\":{\"x\":[1,2]},\"b\":2,"
            "\"list\":[3,{\"y\":4}]}");
}

}  // namespace
}  // namespace collie::core
