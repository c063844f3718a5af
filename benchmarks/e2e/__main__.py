import sys

from benchmarks.e2e.cli import main

sys.exit(main())
