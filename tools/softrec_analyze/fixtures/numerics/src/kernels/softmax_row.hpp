#ifndef SOFTREC_KERNELS_SOFTMAX_ROW_HPP
#define SOFTREC_KERNELS_SOFTMAX_ROW_HPP

#include <cmath>

inline float
expShifted(float x, float m)
{
  return std::exp(x - m);
}

#endif // SOFTREC_KERNELS_SOFTMAX_ROW_HPP
