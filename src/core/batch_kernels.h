/**
 * @file
 * Name of the solvers' arithmetic backend, recorded as `simd_variant`
 * in the context block of every bench report. The DP and ratio solvers
 * have a single implementation in plain scalar binary64 arithmetic, so
 * the name is constant.
 */

#ifndef ACCPAR_CORE_BATCH_KERNELS_H
#define ACCPAR_CORE_BATCH_KERNELS_H

namespace accpar::core {

/** Backend tag reported in bench context blocks: always "scalar". */
inline const char *
batchKernelVariantName()
{
    return "scalar";
}

} // namespace accpar::core

#endif // ACCPAR_CORE_BATCH_KERNELS_H
