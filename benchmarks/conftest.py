import os
import sys

# the repository root, so that the cases can import perfbench
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
