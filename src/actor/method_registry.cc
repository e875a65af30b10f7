#include "actor/method_registry.h"

namespace aodb {

namespace internal {

std::shared_mutex& SigTableMutex() {
  static std::shared_mutex mu;
  return mu;
}

}  // namespace internal

MethodRegistry& MethodRegistry::Global() {
  static MethodRegistry registry;
  return registry;
}

uint64_t MethodRegistry::MethodId(const std::string& method_name) {
  uint64_t h = 14695981039346656037ULL;
  for (char c : method_name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Status MethodRegistry::AddEntry(const std::string& type_name,
                                std::unique_ptr<WireMethodEntry> entry,
                                const WireMethodEntry** installed) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto& methods = types_[type_name];
  auto it = methods.find(entry->info.id);
  if (it != methods.end()) {
    if (it->second->info.name != entry->info.name) {
      return Status::AlreadyExists(
          "wire method id collision in type " + type_name + ": \"" +
          it->second->info.name + "\" vs \"" + entry->info.name + "\"");
    }
    // Idempotent re-registration; a later declaration of idempotency
    // upgrades the existing entry (registration happens at startup).
    it->second->info.idempotent |= entry->info.idempotent;
    *installed = it->second.get();
    return Status::OK();
  }
  *installed = entry.get();
  methods.emplace(entry->info.id, std::move(entry));
  return Status::OK();
}

const WireMethodEntry* MethodRegistry::FindEntry(const std::string& type_name,
                                                 uint64_t method_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto find = [&](const std::string& key) -> const WireMethodEntry* {
    auto tit = types_.find(key);
    if (tit == types_.end()) return nullptr;
    auto mit = tit->second.find(method_id);
    return mit == tit->second.end() ? nullptr : mit->second.get();
  };
  const WireMethodEntry* entry = find(type_name);
  return entry != nullptr ? entry : find(kAllTypes);
}

size_t MethodRegistry::MethodCount(const std::string& type_name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = types_.find(type_name);
  return it == types_.end() ? 0 : it->second.size();
}

Status MethodRegistry::SelfCheckAll() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& [type, methods] : types_) {
    for (const auto& [id, entry] : methods) {
      if (!entry->info.self_check) continue;
      Status st = entry->info.self_check();
      if (!st.ok()) {
        return Status::Internal("wire self-check failed for " + type + "." +
                                entry->info.name + ": " + st.ToString());
      }
    }
  }
  return Status::OK();
}

size_t MethodRegistry::TotalMethods() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [type, methods] : types_) n += methods.size();
  return n;
}

}  // namespace aodb
