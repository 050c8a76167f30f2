#include "core/prepared_model.hpp"

namespace thermo::core {

PreparedModel::PreparedModel(const SocSpec& soc)
    : rc_(std::make_shared<const thermal::RCModel>(soc.flp, soc.package)),
      session_(soc.flp, soc.package) {}

}  // namespace thermo::core
