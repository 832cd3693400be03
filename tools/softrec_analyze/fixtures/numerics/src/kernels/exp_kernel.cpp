#include <cmath>

float
handRolledLs(float x, float m)
{
  return std::exp(x - m);
}
