import os
import sys

here = os.path.dirname(__file__)
sys.path[:0] = [here, os.path.join(os.path.dirname(here), "src")]
