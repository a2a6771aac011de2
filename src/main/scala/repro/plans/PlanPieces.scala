package repro.plans

import repro.core._
import repro.mpi._

/** Reusable plan fragments (the paper's whole point, §3.1): the same
  * sub-operator compositions recur across the distributed join, GROUP BY,
  * join sequences, and TPC-H plans. Conventions:
  *
  *  - every keyed stream has its 64-bit join/grouping key as field 0, named
  *    `"k"` (dense domain, so identity-hash radix partitioning applies);
  *  - network partition of a tuple = the key's low `netBits` bits
  *    (`netRadix`); local partition = the next `localBits` bits — identical
  *    for raw keys (`localRadix`) and the ⟨khi, value⟩ rows of a
  *    radix-compressed exchange, whose `khi` already lacks the network bits.
  */
object PlanPieces {
  val id: SubOp => SubOp = s => s

  /** Shared knobs of every distributed plan in the paper's evaluation. */
  final case class DistConfig(
      nRanks: Int,
      net: NetConfig = NetConfig(),
      netBits: Int = 3,
      localBits: Int = 4,
      compress: Boolean = true,
  ) {
    val netRadix: Radix = Radix(0, netBits)
    val localRadix: Radix = Radix(netBits, localBits)
    require(netRadix.fan >= nRanks, s"netBits=$netBits gives fewer partitions than ranks=$nRanks")
    def netFan: Int = netRadix.fan
    def localFan: Int = localRadix.fan
  }

  /** `RowScan(Projection(ParameterLookup, field), field)` — dissect one
    * collection field of the enclosing scope's tuple into a row stream
    * (the PL→PR→RS motif of Figs 3 and 5).
    */
  def scanField(slot: ParamSlot, field: String): SubOp =
    new RowScan(new Projection(new ParameterLookup(slot), Seq(field)), field)

  /** Local (second-pass) partitioning of exchanged element tuples —
    * ⟨khi, value⟩ rows of a compressed exchange, whose `khi` already lacks
    * the network bits, or raw keyed tuples.
    */
  def localPartOf(cfg: DistConfig, compressed: Boolean): Radix =
    if (compressed) Radix(0, cfg.localBits) else cfg.localRadix

  /** The paper's histogram-then-exchange pipeline (upper part of Fig 3):
    * Shared(keyed) → LocalHistogram → MpiHistogram → MpiExchange. The keyed
    * stream is materialized once per invocation of `scope`, the rank's slot
    * (pipeline cut: it has two consumers; a scan of the rank's shard replays
    * the shard itself), inside localHistogram: each operator's `open()` does
    * all its work and is timed as its phase.
    * Returns the ⟨npid, data⟩ stream of partitions owned by this rank.
    */
  def exchangePipeline(
      keyed: SubOp,
      scope: ParamSlot,
      ctx: MpiContext,
      cfg: DistConfig,
      compress: Boolean,
      ownerShift: Int = 0,
  ): SubOp = {
    val sh = new Shared(keyed, scope)
    val lh = new Shared(
      new Timed(new LocalHistogram(sh.scan, cfg.netFan, cfg.netRadix), ctx.timer, Phase.localHistogram),
      scope)
    val gh = new Timed(new MpiHistogram(lh.scan, cfg.netFan, ctx), ctx.timer, Phase.globalHistogram)
    val ex = new MpiExchange(sh.scan, lh.scan, gh, cfg.netRadix, ctx, compress, ownerShift)
    new Timed(ex, ctx.timer, Phase.networkPartition)
  }

  /** The local partitioning motif inside the first NestedMap of Figs 3/5:
    * scan one partition's data, histogram + scatter it into `localFan`
    * sub-partitions, and re-attach the networkPartitionID via a
    * CartesianProduct (its left side is the single-tuple npid projection).
    * Output: ⟨npidField, lpidName, dataName⟩.
    */
  def localPartitionSide(
      slot1: ParamSlot,
      ctx: MpiContext,
      cfg: DistConfig,
      npidField: String,
      dataField: String,
      lpidName: String,
      dataName: String,
      compressed: Boolean,
  ): SubOp = {
    val part = localPartOf(cfg, compressed)
    val sh   = new Shared(scanField(slot1, dataField), slot1)
    val lh   = new LocalHistogram(sh.scan, part.fan, part)
    val lp   = new Timed(
      new LocalPartitioning(sh.scan, lh, part.fan, part), ctx.timer, Phase.localPartition)
    new CartesianProduct(
      new Projection(new ParameterLookup(slot1), Seq(npidField)),
      new Rename(lp, Seq(lpidName, dataName)),
    )
  }

  /** Recover the partition bits dropped by the compression (ParametrizedMap
    * fed the networkPartitionID, §4.1.2): field 0 `khi` becomes the full key
    * `k`. Works on any stream whose field 0 is the key's high bits `khi`.
    * Rows of an upstream with [[SubOp.freshRows]] are restored in place;
    * any other row is cloned first.
    */
  def restoreKeys(
      up: SubOp,
      slotWithNpid: ParamSlot,
      npidField: String,
      cfg: DistConfig,
  ): SubOp = {
    val netBits = cfg.netBits
    val outT = TupleType(("k" -> (Atom.LongA: ItemType)) +: up.outType.fields.tail)
    val inPlace = up.freshRows
    new ParametrizedMap(
      up,
      new Projection(new ParameterLookup(slotWithNpid), Seq(npidField)),
      (param, t) => {
        val out = if (inPlace) t else t.clone()
        out(0) = MpiExchange.restoreKey(
          t(0).asInstanceOf[Long], param(0).asInstanceOf[Int], netBits)
        out
      },
      outT,
    )
  }

  /** The radix-partitioned skeleton of Figs 3–5 (§4.1–4.3), shared by the
    * join, GROUP BY and join-sequence plans.
    *
    * Each side is a keyed stream (field 0 a long key). It is exchanged,
    * radix-compressed when `cfg.compress` is set and the side is
    * `MpiExchange.compressible` (⟨long,long⟩ tuples), and renamed to
    * ⟨npid$i, data$i⟩. The sides are zipped partition by partition; side
    * 0's exchange opens first, so every rank drives the collectives in the
    * same order. The first NestedMap local-partitions every side and zips
    * the sub-partitions. The second hands `body` one stream per side, the
    * scan of its sub-partition: ⟨khi, value⟩ as a compressed exchange
    * unpacked it (value named after the side's field 1), the keyed tuple
    * otherwise. `body` also gets `restore`, which turns a leading `khi`
    * back into the full key `k` from `npid0` and leaves any other stream
    * as it is.
    *
    * The body's result is materialized per sub-partition, and `levelAgg`'s
    * result per network partition; both materializations are timed as
    * `phase`. `levelAgg` runs after each unnesting, the last time on the
    * returned stream, which [[onCluster]] drains under the same phase.
    * `slot` is the rank's slot, the scope of the exchanges.
    * Returns the flattened per-rank stream.
    */
  def partitioned(
      sides: Seq[SubOp],
      slot: ParamSlot,
      ctx: MpiContext,
      cfg: DistConfig,
      phase: Phase.Value,
      ownerShift: Int = 0,
      levelAgg: SubOp => SubOp = id,
  )(body: (Seq[SubOp], SubOp => SubOp) => SubOp): SubOp = {
    for (keyed <- sides)
      require(keyed.outType.fields.head._2 == Atom.LongA,
        s"partition key (field 0) must be a long: ${keyed.outType.render}")
    val compressed = sides.map(keyed => cfg.compress && MpiExchange.compressible(keyed.outType))
    val idx = sides.indices
    val exchanged = idx.map(i => new Rename(
      exchangePipeline(sides(i), slot, ctx, cfg, compressed(i), ownerShift), Seq(s"npid$i", s"data$i")))
    val nm1 = new NestedMap(new Zip(exchanged), slot1 => {
      val local = idx.map(i =>
        localPartitionSide(slot1, ctx, cfg, s"npid$i", s"data$i", s"lpid$i", s"ldata$i", compressed(i)))
      val nm2 = new NestedMap(new Zip(local), slot2 => {
        val streams = idx.map(i => scanField(slot2, s"ldata$i"))
        val restore: SubOp => SubOp = up =>
          if (up.outType.fieldNames.head == "khi") restoreKeys(up, slot2, "npid0", cfg) else up
        new Timed(new MaterializeRowVector(body(streams, restore), "data"), ctx.timer, phase)
      })
      new Timed(new MaterializeRowVector(levelAgg(new RowScan(nm2, "data")), "data"), ctx.timer, phase)
    })
    levelAgg(new RowScan(nm1, "data"))
  }

  /** Driver plan of every distributed plan: give rank r the tuple of its
    * shards ⟨field_i = shards_i(r)⟩, run `rankStream` on the simulated
    * cluster via MpiExecutor (materialized, one result tuple per rank) and
    * flatten the per-rank results. The per-rank materialization, with
    * whatever of `rankStream` no inner phase covers, is timed as `phase`,
    * the plan's body phase. Returns (driver-side stream, executor); the
    * executor's `report` holds what the ranks measured.
    */
  def onCluster(cfg: DistConfig, rels: Seq[(String, TupleType, Vector[RowVec])], phase: Phase.Value)(
      rankStream: (ParamSlot, MpiContext) => SubOp): (SubOp, MpiExecutor) = {
    require(rels.forall(_._3.size == cfg.nRanks),
      s"every relation needs exactly one shard per rank (${cfg.nRanks})")
    val inType = TupleType(rels.map { case (f, t, _) => f -> (CollectionType(t): ItemType) }.toVector)
    val rows = (0 until cfg.nRanks).map(r => rels.map(_._3(r)).toArray[Any])
    val exec = new MpiExecutor(new VectorSource(rows, inType), cfg.nRanks, cfg.net,
      (slot, ctx) => new Timed(new MaterializeRowVector(rankStream(slot, ctx), "data"), ctx.timer, phase))
    (new RowScan(exec, "data"), exec)
  }

  /** ⟨k, v⟩ long-pair sum combiner for ReduceByKey (key already stripped):
    * adds into the accumulator `a`, which ReduceByKey owns, and returns it.
    */
  val sumLongValue: (Array[Any], Array[Any]) => Array[Any] =
    (a, b) => { a(0) = a(0).asInstanceOf[Long] + b(0).asInstanceOf[Long]; a }
}
