"""Self-test of the speed-corrected clock (speed.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402


class ScaleTest(unittest.TestCase):
    def test_scale_is_nominal_over_recent_median(self):
        n = speed.NOMINAL_S
        self.assertEqual(speed.scale_for([n]), 1.0)
        # the median of the last WINDOW samples; older samples are ignored
        old = [100 * n] * 10
        recent = [2 * n, 2 * n, 50 * n, 2 * n, 0.1 * n]
        self.assertEqual(speed.scale_for(old + recent), 0.5)

    def test_read_rescales_slices_and_skips_handler_time(self):
        c = speed.SpeedClock()
        c._state = (time.perf_counter() - 1.0, 3.0, 6.0, 0.5)
        wall, norm = c.read()
        self.assertAlmostEqual(wall, 4.0, delta=0.05)
        self.assertAlmostEqual(norm, 6.5, delta=0.05)
        # a sample that ended after read() took its time closes the slice
        c._state = (time.perf_counter() + 1.0, 3.0, 6.0, 0.5)
        self.assertEqual(c.read(), (3.0, 6.0))


class ClockTest(unittest.TestCase):
    def test_samples_while_running_and_restores_handler(self):
        import signal

        before = signal.getsignal(signal.SIGALRM)
        c = speed.SpeedClock(period=0.01)
        c.start()
        try:
            t0, end = c.read(), time.perf_counter() + 0.3
            while time.perf_counter() < end:
                speed.kernel()
            wall, norm = (b - a for a, b in zip(t0, c.read()))
        finally:
            c.stop()
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertGreater(len(c.samples), speed.CALIBRATION_SAMPLES + 5)
        self.assertGreater(wall, 0.1)
        self.assertLessEqual(wall, 0.3 + 1e-3)
        self.assertGreater(norm, 0.0)


if __name__ == "__main__":
    unittest.main()
