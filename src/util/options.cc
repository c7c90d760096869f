#include "util/options.h"

#include <cstdlib>
#include <stdexcept>

namespace mpcgs {

Options Options::parse(int argc, const char* const* argv) {
    Options o;
    if (argc > 0) o.program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) == 0) {
            a = a.substr(2);
            const auto eq = a.find('=');
            if (eq != std::string::npos) {
                o.kv_[a.substr(0, eq)] = a.substr(eq + 1);
            } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
                o.kv_[a] = argv[++i];
            } else {
                o.kv_[a] = "";  // bare flag
            }
        } else {
            o.positional_.push_back(a);
        }
    }
    return o;
}

bool Options::has(const std::string& key) const { return kv_.count(key) > 0; }

std::vector<std::string> Options::keys() const {
    std::vector<std::string> out;
    out.reserve(kv_.size());
    for (const auto& kv : kv_) out.push_back(kv.first);
    return out;
}

std::optional<std::string> Options::get(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return std::nullopt;
    return it->second;
}

std::string Options::get(const std::string& key, const std::string& dflt) const {
    return get(key).value_or(dflt);
}

long long Options::getInt(const std::string& key, long long dflt) const {
    const auto v = get(key);
    if (!v || v->empty()) return dflt;
    return std::strtoll(v->c_str(), nullptr, 10);
}

double Options::getDouble(const std::string& key, double dflt) const {
    const auto v = get(key);
    if (!v || v->empty()) return dflt;
    return std::strtod(v->c_str(), nullptr);
}

bool Options::getBool(const std::string& key, bool dflt) const {
    const auto v = get(key);
    if (!v) return dflt;
    if (v->empty() || *v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
    return false;
}

}  // namespace mpcgs
