#include "src/sim/simulation.h"

namespace achilles {

// The simulation core is a header template (the queue engine is a compile-time
// parameter); instantiate the production engine once here so every other translation
// unit links against it.
template class SimulationT<CalendarQueue>;

}  // namespace achilles
