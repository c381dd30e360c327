"""One tracemalloc measurement for the memory pins of the tests.

numpy reports its array buffers to tracemalloc, so the figures cover them
as well as Python objects.
"""

import tracemalloc


def traced(fn):
    """(fn(), bytes it kept, its peak): memory allocated while fn ran, traced from its start.

    `kept` is what is still allocated when fn returns, its result included;
    `peak` is the most that was allocated at any moment of the call.
    Memory allocated before the call is not counted.
    """
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak
