package repro.monolith

import scala.collection.mutable.ArrayBuffer
import scala.util.hashing.byteswap32

import repro.core.{Radix, RowVec}
import repro.mpi._

/** The monolithic, hand-fused distributed radix hash join in the style of
  * Barthels et al. [5, 6] — the baseline of Fig 6. One imperative function
  * per rank over the same simulated RDMA substrate ([[MpiRuntime]]) and the
  * same tuple representation as the modular plan, so the measured gap
  * isolates exactly what the paper measures: the cost of the sub-operator
  * abstractions (virtual next() calls, per-pipeline materializations,
  * NestedMap orchestration) versus fused loops.
  *
  * Phases (timed under the same names as the modular plan):
  * local histograms (both relations in one pass structure), one global
  * histogram epoch for both, network partitioning with write-combining
  * buffers + radix compression into the same word windows as
  * [[MpiExchange]], ending with the same unpack of each received word into
  * a ⟨khi, v⟩ row, local re-partitioning, build-probe with key-bit
  * recovery.
  */
object MonolithicRadixJoin {

  final case class Result(
      rows: ArrayBuffer[Array[Any]],
      timer: PhaseTimer,
      stats: NetStats,
  )

  /** Run the fused join of ⟨k,v⟩ relations `r ⋈ s` on one simulated cluster.
    * It partitions with the modular plan's two radix values: the key's low
    * `netBits` bits across the network, then the next `localBits` bits (the
    * low bits of the unpacked `khi`). Returns per-rank materialized outputs
    * ⟨k, rv, sv⟩.
    */
  def run(
      rParts: Vector[RowVec],
      sParts: Vector[RowVec],
      nRanks: Int,
      net: NetConfig,
      netBits: Int,
      localBits: Int,
  ): Vector[Result] = {
    require(rParts.size == nRanks && sParts.size == nRanks)
    val netRadix = Radix(0, netBits)
    val localRadix = Radix(0, localBits)
    val runtime = new MpiRuntime(nRanks, net)
    runtime.run { ctx =>
      val rows = joinOnRank(ctx, rParts(ctx.rank), sParts(ctx.rank), netRadix, localRadix)
      Result(rows, ctx.timer, ctx.stats)
    }
  }

  private def joinOnRank(
      ctx: MpiContext,
      r: RowVec,
      s: RowVec,
      netRadix: Radix,
      localRadix: Radix,
  ): ArrayBuffer[Array[Any]] = {
    import MpiExchange.{WordBytes, packRow, restoreKey, unpack}
    val batchRows = MpiExchange.BatchRows
    val n = ctx.nRanks

    // ---- Phase 1a: local histograms, both relations back to back. --------
    val (hr, hs) = ctx.timer.time(Phase.localHistogram) {
      val hr = new Array[Long](netRadix.fan)
      val hs = new Array[Long](netRadix.fan)
      var i = 0
      while (i < r.length) { val b = netRadix(r(i)); hr(b) = hr(b) + 1; i += 1 }
      i = 0
      while (i < s.length) { val b = netRadix(s(i)); hs(b) = hs(b) + 1; i += 1 }
      (hr, hs)
    }

    // ---- Phase 1b: global histograms — both allreduces adjacent, so the
    // collectives of the two relations run "almost at the same time" (§5.1.2).
    val (ghr, ghs) = ctx.timer.time(Phase.globalHistogram) {
      (ctx.allReduceSum(hr), ctx.allReduceSum(hs))
    }

    // ---- Phase 2: network partitioning with compression. -----------------
    val (rRows, sRows, rBase, sBase) = ctx.timer.time(Phase.networkPartition) {
      val cr = ctx.allGather(hr)
      val cs = ctx.allGather(hs)

      // Summed in Long; every offset is at most its owner's window size,
      // checked to fit an Int.
      def layout(gh: Array[Long]): (Array[Int], Array[Int]) = {
        val partBase = new Array[Long](netRadix.fan)
        val sizePerRank = new Array[Long](n)
        var p = 0
        while (p < netRadix.fan) {
          val o = p % n
          partBase(p) = sizePerRank(o)
          sizePerRank(o) += gh(p)
          p += 1
        }
        for (o <- 0 until n)
          require(sizePerRank(o) <= Int.MaxValue,
            s"window of rank $o needs ${sizePerRank(o)} rows, more than an Int window holds")
        (partBase.map(_.toInt), sizePerRank.map(_.toInt))
      }
      val (rBase, rSizes) = layout(ghr)
      val (sBase, sSizes) = layout(ghs)
      val rWin = ctx.winCreate[Long](rSizes(ctx.rank))
      val sWin = ctx.winCreate[Long](sSizes(ctx.rank))

      def scatter(
          data: RowVec,
          counts: Vector[Array[Long]],
          base: Array[Int],
          win: Window[Long],
      ): Array[Array[Any]] = {
        val cursor = new Array[Int](netRadix.fan)
        var p = 0
        while (p < netRadix.fan) {
          var off = base(p)
          var rr = 0
          while (rr < ctx.rank) { off += counts(rr)(p).toInt; rr += 1 }
          cursor(p) = off
          p += 1
        }
        val batches = Array.fill(netRadix.fan)(new Array[Long](batchRows))
        val fill = new Array[Int](netRadix.fan)
        def flush(p: Int): Unit = {
          val len = fill(p)
          if (len > 0) {
            ctx.put(win, p % n, cursor(p), batches(p), len, len.toLong * WordBytes)
            cursor(p) += len
            fill(p) = 0
          }
        }
        var i = 0
        while (i < data.length) {
          val t = data(i)
          val p2 = netRadix(t)
          // write-combining buffer of compressed 64-bit words
          batches(p2)(fill(p2)) = packRow(t, netRadix.bits)
          fill(p2) = fill(p2) + 1
          if (fill(p2) == batchRows) flush(p2)
          i += 1
        }
        p = 0
        while (p < netRadix.fan) { flush(p); p += 1 }
        ctx.fence(win)
        unpack(win.local(ctx.rank))
      }
      (scatter(r, cr, rBase, rWin), scatter(s, cs, sBase, sWin), rBase, sBase)
    }

    val myParts = (0 until netRadix.fan).filter(_ % n == ctx.rank).toArray

    // ---- Phase 3: local re-partitioning (histogram + scatter fused). ------
    // Same representation as the modular plan (the unpacked ⟨khi, v⟩ rows)
    // so the comparison isolates abstraction overhead, not data layout
    // (DESIGN.md).
    type SubParts = Array[Array[Array[Any]]]
    def localRepartition(region: Array[Array[Any]], base: Array[Int], gh: Array[Long]): Array[SubParts] =
      myParts.map { p =>
        val from = base(p)
        val len  = gh(p).toInt
        val hist = new Array[Int](localRadix.fan)
        var i = 0
        while (i < len) {
          val b = localRadix(region(from + i))
          hist(b) = hist(b) + 1
          i += 1
        }
        val out = Array.tabulate(localRadix.fan)(b => new Array[Array[Any]](hist(b)))
        val cur = new Array[Int](localRadix.fan)
        i = 0
        while (i < len) {
          val row = region(from + i)
          val b = localRadix(row)
          out(b)(cur(b)) = row
          cur(b) += 1
          i += 1
        }
        out
      }

    val (rSub, sSub) = ctx.timer.time(Phase.localPartition) {
      (localRepartition(rRows, rBase, ghr), localRepartition(sRows, sBase, ghs))
    }

    // ---- Phase 4: build and probe per cache-sized sub-partition. ----------
    // The bucket-chained table of BuildProbe (head/chain arrays, chains in
    // build order), inlined on the unboxed key-high bits `khi`.
    ctx.timer.time(Phase.buildProbe) {
      val out = new ArrayBuffer[Array[Any]]()
      var pi = 0
      while (pi < myParts.length) {
        val npid = myParts(pi)
        var b = 0
        while (b < localRadix.fan) {
          val rs = rSub(pi)(b)
          val ss = sSub(pi)(b)
          val keys = new Array[Long](rs.length)
          val chain = new Array[Int](rs.length)
          val head = Array.fill(Integer.highestOneBit(math.max(2 * rs.length - 1, 1)) << 1)(-1)
          val mask = head.length - 1
          var i = rs.length - 1
          while (i >= 0) {
            val khi = rs(i)(0).asInstanceOf[Long]
            val h = byteswap32(khi.##) & mask
            keys(i) = khi
            chain(i) = head(h)
            head(h) = i
            i -= 1
          }
          i = 0
          while (i < ss.length) {
            val sr = ss(i)
            val khi = sr(0).asInstanceOf[Long]
            var j = head(byteswap32(khi.##) & mask)
            while (j >= 0) {
              if (keys(j) == khi)
                out += Array[Any](restoreKey(khi, npid, netRadix.bits), rs(j)(1), sr(1))
              j = chain(j)
            }
            i += 1
          }
          b += 1
        }
        pi += 1
      }
      out
    }
  }

  /** Convenience: total output cardinality across ranks. */
  def totalRows(rs: Vector[Result]): Long = rs.map(_.rows.size.toLong).sum
}
