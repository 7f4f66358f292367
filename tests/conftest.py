"""Pin OpenBLAS to one thread for the test session.

The suite's matrices are small (at most a few hundred rows), where BLAS
threads cost more than they save: the ISI BER simulation runs about 2.4x
slower with two threads than with one.  This has to run before numpy is
first imported; a count already set in the environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
