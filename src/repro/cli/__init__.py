"""The ``repro`` subcommands, one module per command family.

:mod:`.options` declares the options several commands share, with their
parse-time bounds, and the selection and scale rules.  :mod:`.programs`
(list, run, disasm, cfg, lint), :mod:`.paper` (profile, allocate,
verify-static, experiment) and :mod:`.ops` (faults, serve, loadgen,
merge-shards, supervise) each declare their subcommands' arguments next
to the handlers that read them.
"""
