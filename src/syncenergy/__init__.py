"""Synchronization energy analysis of power system Park-vector series.

The synchronization energy (SE) of a device port, computed from its voltage
and current Park vectors, decays to zero when the device settles into
synchronized operation, stays bounded for sustained oscillations and
diverges on loss of synchronism.  Each name is imported from its module:
``signals`` (``TimeGrid``, ``ParkSeries``, ``complex_frequency``),
``energy`` (``teo_real``), ``metric`` (the two SE routes ``se_from_cf`` and
``se_numeric``, ``classify_sync``), ``pll`` (``pll_run``), ``simulator``
(``smib_simulate``, ``synthetic_signal``), ``pipeline`` (``analyze``,
``identity_gap``), ``config`` (``load_document``, ``parse_scenario``),
``runner`` (``run_scenario``, ``verify_scenario``, ``run_sweep``,
``read_series_csv``) and ``cli`` (``main``, the ``syncenergy`` command).
"""
