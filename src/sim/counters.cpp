#include "sim/counters.hpp"

#include "sim/device.hpp"

namespace ms::sim {

ScopedSite::ScopedSite(Device& dev, SiteId site)
    : dev_(&dev), prev_(dev.set_site(site)) {}

ScopedSite::ScopedSite(Device& dev, std::string_view label)
    : ScopedSite(dev, dev.site_id(label)) {}

ScopedSite::~ScopedSite() { dev_->set_site(prev_); }

Stage::Stage(Device& dev, std::string name)
    : dev_(&dev),
      name_(std::move(name)),
      begin_(dev.mark()),
      span_(dev, SpanKind::kStage, name_) {}

Stage::~Stage() { end(); }

TimingSummary Stage::end() {
  if (ended_) return final_;
  ended_ = true;
  final_ = dev_->summary_since(begin_);
  dev_->add_region(RegionRecord{name_, begin_, dev_->mark()});
  span_.end();
  return final_;
}

}  // namespace ms::sim
