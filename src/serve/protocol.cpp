#include "serve/protocol.h"

#include <cmath>
#include <sstream>
#include <utility>

namespace msc::serve {

namespace {

struct CommandEntry {
  const char* name;
  Command cmd;
};

constexpr CommandEntry kCommands[] = {
    {"load_graph", Command::LoadGraph}, {"load_pairs", Command::LoadPairs},
    {"solve", Command::Solve},          {"eval", Command::Eval},
    {"stats", Command::Stats},          {"metrics", Command::Metrics},
    {"health", Command::Health},        {"sleep", Command::Sleep},
    {"cancel", Command::Cancel},        {"shutdown", Command::Shutdown},
};

std::string renderResponse(const json::Value& id, const char* status,
                           json::Object fields, double wallSeconds,
                           std::uint64_t gainEvals) {
  fields["schema"] = kSchemaVersion;
  fields["id"] = id;
  fields["status"] = status;
  fields["wall_seconds"] = wallSeconds;
  fields["gain_evals"] = gainEvals;
  return json::dump(json::Value(std::move(fields)));
}

}  // namespace

const char* commandName(Command cmd) {
  for (const auto& entry : kCommands) {
    if (entry.cmd == cmd) return entry.name;
  }
  return "?";
}

Request parseRequest(const std::string& line) {
  json::Value doc;
  try {
    doc = json::parse(line);
  } catch (const json::ParseError& e) {
    throw ProtocolError(e.what());
  }
  if (!doc.isObject()) {
    throw ProtocolError("request must be a JSON object");
  }
  Request req;
  req.params = doc.asObject();

  if (const auto it = req.params.find("id"); it != req.params.end()) {
    const json::Value& id = it->second;
    if (!id.isNull() && !id.isString() && !id.isNumber()) {
      throw ProtocolError("\"id\" must be a string, number or null");
    }
    req.id = id;
  }

  const auto cmdIt = req.params.find("cmd");
  if (cmdIt == req.params.end()) {
    throw ProtocolError("missing \"cmd\" field", req.id);
  }
  if (!cmdIt->second.isString()) {
    throw ProtocolError("\"cmd\" must be a string", req.id);
  }
  const std::string& name = cmdIt->second.asString();
  for (const auto& entry : kCommands) {
    if (name == entry.name) {
      req.cmd = entry.cmd;
      return req;
    }
  }
  throw ProtocolError("unknown cmd \"" + name + "\"", req.id);
}

std::string okResponse(const json::Value& id, Command cmd,
                       json::Object fields, double wallSeconds,
                       std::uint64_t gainEvals) {
  fields["cmd"] = commandName(cmd);
  return renderResponse(id, "ok", std::move(fields), wallSeconds, gainEvals);
}

std::string statusResponse(const json::Value& id, Command cmd,
                           json::Object fields, const char* status,
                           double wallSeconds, std::uint64_t gainEvals) {
  fields["cmd"] = commandName(cmd);
  return renderResponse(id, status, std::move(fields), wallSeconds, gainEvals);
}

std::string errorResponse(const json::Value& id, const std::string& message,
                          double wallSeconds) {
  json::Object fields;
  fields["error"] = message;
  return renderResponse(id, "error", std::move(fields), wallSeconds, 0);
}

std::string overloadedResponse(const json::Value& id, std::size_t queueDepth,
                               std::size_t queueLimit) {
  json::Object fields;
  fields["error"] = "admission queue full";
  fields["queue_depth"] = queueDepth;
  fields["queue_limit"] = queueLimit;
  return renderResponse(id, "overloaded", std::move(fields), 0.0, 0);
}

const json::Value* findParam(const Request& req, const char* key) {
  const auto it = req.params.find(key);
  return it == req.params.end() ? nullptr : &it->second;
}

std::string requireStringParam(const Request& req, const char* key) {
  const json::Value* v = findParam(req, key);
  if (!v) {
    throw ProtocolError(std::string("missing required field \"") + key + "\"");
  }
  if (!v->isString()) {
    throw ProtocolError(std::string("field \"") + key + "\" must be a string");
  }
  return v->asString();
}

std::string getStringParam(const Request& req, const char* key,
                           const std::string& fallback) {
  const json::Value* v = findParam(req, key);
  if (!v) return fallback;
  if (!v->isString()) {
    throw ProtocolError(std::string("field \"") + key + "\" must be a string");
  }
  return v->asString();
}

double getNumberParam(const Request& req, const char* key, double fallback) {
  const json::Value* v = findParam(req, key);
  if (!v) return fallback;
  if (!v->isNumber()) {
    throw ProtocolError(std::string("field \"") + key + "\" must be a number");
  }
  return v->asNumber();
}

long long getIntParam(const Request& req, const char* key, long long fallback,
                      long long min, long long max) {
  const json::Value* v = findParam(req, key);
  long long value = fallback;
  if (v) {
    if (!v->isNumber()) {
      throw ProtocolError(std::string("field \"") + key +
                          "\" must be a number");
    }
    const double d = v->asNumber();
    if (!std::isfinite(d) || d != std::floor(d)) {
      throw ProtocolError(std::string("field \"") + key +
                          "\" must be an integer");
    }
    value = static_cast<long long>(d);
  }
  if (value < min || value > max) {
    throw ProtocolError(std::string("field \"") + key + "\" out of range [" +
                        std::to_string(min) + ", " + std::to_string(max) +
                        "]");
  }
  return value;
}

bool getBoolParam(const Request& req, const char* key, bool fallback) {
  const json::Value* v = findParam(req, key);
  if (!v) return fallback;
  if (!v->isBool()) {
    throw ProtocolError(std::string("field \"") + key +
                        "\" must be a boolean");
  }
  return v->asBool();
}

core::ShortcutList parsePlacementSpec(const std::string& spec) {
  core::ShortcutList out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (token.empty()) continue;
    const auto dash = token.find('-', 1);  // allow no leading '-' only
    if (dash == std::string::npos) {
      throw ProtocolError("malformed placement entry \"" + token + "\"");
    }
    try {
      std::size_t usedA = 0;
      std::size_t usedB = 0;
      const std::string aStr = token.substr(0, dash);
      const std::string bStr = token.substr(dash + 1);
      const int a = std::stoi(aStr, &usedA);
      const int b = std::stoi(bStr, &usedB);
      if (usedA != aStr.size() || usedB != bStr.size()) {
        throw ProtocolError("malformed placement entry \"" + token + "\"");
      }
      out.push_back(core::Shortcut::make(a, b));
    } catch (const ProtocolError&) {
      throw;
    } catch (const std::exception&) {
      throw ProtocolError("malformed placement entry \"" + token + "\"");
    }
  }
  return out;
}

std::string placementSpec(const core::ShortcutList& placement) {
  std::string out;
  for (std::size_t i = 0; i < placement.size(); ++i) {
    if (i) out.push_back(',');
    out += std::to_string(placement[i].a);
    out.push_back('-');
    out += std::to_string(placement[i].b);
  }
  return out;
}

std::vector<core::SocialPair> parsePairsText(const std::string& text) {
  std::vector<core::SocialPair> pairs;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ss(line);
    int u = 0;
    int w = 0;
    std::string rest;
    if (!(ss >> u >> w) || ((ss >> rest) && rest[0] != '#')) {
      throw ProtocolError("malformed pair line: " + line);
    }
    pairs.push_back({u, w});
  }
  return pairs;
}

}  // namespace msc::serve
