"""Print the frame depth of a module body run with `python -m`."""

import sys

depth = 0
frame = sys._getframe()
while frame is not None:
    depth += 1
    frame = frame.f_back
print(depth)
