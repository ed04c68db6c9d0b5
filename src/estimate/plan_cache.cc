#include "estimate/plan_cache.h"

#include <cctype>

namespace xcluster {

std::string_view PlanCache::NormalizeQuery(std::string_view raw) {
  size_t begin = 0;
  size_t end = raw.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(raw[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(raw[end - 1]))) {
    --end;
  }
  return raw.substr(begin, end - begin);
}

}  // namespace xcluster
