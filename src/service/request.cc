#include "service/request.h"

#include "util/error.h"
#include "util/json.h"

namespace spineless::service {

namespace {

RequestKind parse_kind(const std::string& s) {
  if (s == "whatif_fault") return RequestKind::kWhatIfFault;
  if (s == "whatif_tm") return RequestKind::kWhatIfTm;
  if (s == "affected") return RequestKind::kAffected;
  if (s == "status") return RequestKind::kStatus;
  throw Error("request: unknown kind '" + s +
              "' (expected whatif_fault | whatif_tm | affected | status)");
}

const char* kind_name(RequestKind k) {
  switch (k) {
    case RequestKind::kWhatIfFault: return "whatif_fault";
    case RequestKind::kWhatIfTm: return "whatif_tm";
    case RequestKind::kAffected: return "affected";
    case RequestKind::kStatus: return "status";
  }
  return "status";
}

// Writes every answer-affecting field in a fixed key order, always present:
// two requests ask the same question iff these bytes are equal.
void write_question(JsonWriter& w, const Request& req) {
  w.kv("kind", kind_name(req.kind));
  switch (req.kind) {
    case RequestKind::kWhatIfFault:
      w.kv("spec", req.fault_spec);
      break;
    case RequestKind::kWhatIfTm:
      w.kv("tm", req.tm);
      w.kv("load_scale", req.load_scale);
      break;
    case RequestKind::kAffected:
      w.kv("link", req.link);
      w.kv("down", req.down);
      break;
    case RequestKind::kStatus:
      break;
  }
  w.kv("fidelity", fidelity_name(req.fidelity));
  w.kv("seed_salt", req.seed_salt);
}

Fidelity parse_fidelity(const std::string& s) {
  if (s == "auto") return Fidelity::kAuto;
  if (s == "packet") return Fidelity::kPacket;
  if (s == "fluid") return Fidelity::kFluid;
  throw Error("request: unknown fidelity '" + s +
              "' (expected auto | packet | fluid)");
}

}  // namespace

const char* fidelity_name(Fidelity f) {
  switch (f) {
    case Fidelity::kAuto: return "auto";
    case Fidelity::kPacket: return "packet";
    case Fidelity::kFluid: return "fluid";
  }
  return "auto";
}

Request parse_request(const std::string& line) {
  const JsonValue doc = parse_json(line);
  if (!doc.is_object()) throw Error("request: expected a JSON object");
  Request req;
  const JsonValue* id = doc.find("id");
  if (id == nullptr) throw Error("request: missing id");
  req.id = id->as_int();
  const JsonValue* kind = doc.find("kind");
  if (kind == nullptr) throw Error("request: missing kind");
  req.kind = parse_kind(kind->as_string());

  switch (req.kind) {
    case RequestKind::kWhatIfFault: {
      const JsonValue* spec = doc.find("spec");
      if (spec == nullptr)
        throw Error("request: whatif_fault needs a spec (FaultPlan grammar)");
      req.fault_spec = spec->as_string();
      break;
    }
    case RequestKind::kWhatIfTm: {
      const JsonValue* tm = doc.find("tm");
      if (tm == nullptr)
        throw Error(
            "request: whatif_tm needs tm = uniform | skewed | permutation");
      req.tm = tm->as_string();
      if (req.tm != "uniform" && req.tm != "skewed" && req.tm != "permutation")
        throw Error("request: unknown tm '" + req.tm +
                    "' (expected uniform | skewed | permutation)");
      if (const JsonValue* ls = doc.find("load_scale")) {
        req.load_scale = ls->as_number();
        if (!(req.load_scale > 0) || req.load_scale > 8.0)
          throw Error("request: load_scale out of (0, 8]");
      }
      break;
    }
    case RequestKind::kAffected: {
      const JsonValue* link = doc.find("link");
      if (link == nullptr) throw Error("request: affected needs a link id");
      req.link = link->as_int();
      if (const JsonValue* down = doc.find("down")) req.down = down->as_bool();
      break;
    }
    case RequestKind::kStatus:
      break;
  }

  if (const JsonValue* f = doc.find("fidelity"))
    req.fidelity = parse_fidelity(f->as_string());
  if (const JsonValue* d = doc.find("deadline_ms")) {
    req.deadline_ms = d->as_number();
    if (req.deadline_ms < 0) throw Error("request: negative deadline_ms");
  }
  if (const JsonValue* s = doc.find("seed_salt"))
    req.seed_salt = s->as_uint();
  return req;
}

std::string canonical_request_body(const Request& req) {
  JsonWriter w;
  w.begin_object();
  write_question(w, req);
  w.end_object();
  return w.str();
}

std::string canonical_request_line(const Request& req) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", req.id);
  write_question(w, req);
  if (req.deadline_ms > 0) w.kv("deadline_ms", req.deadline_ms);
  w.end_object();
  return w.str();
}

}  // namespace spineless::service
